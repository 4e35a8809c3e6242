"""DNS substrate tests: names, rdata, messages, cache, zone, resolver."""

import ipaddress

import pytest
from hypothesis import given, settings, strategies as st

import rfc1035_reference as reference
from repro.dns import (
    AData,
    AAAAData,
    CNAMEData,
    DNSCache,
    DNSClass,
    Flags,
    HTTPSData,
    Message,
    NSData,
    NameError_,
    OPTData,
    PTRData,
    Question,
    RawData,
    Rcode,
    RecordType,
    RecursiveResolver,
    ResourceRecord,
    SOAData,
    SRVData,
    StubResolver,
    TXTData,
    Zone,
    ZoneRecord,
    decode_name,
    encode_name,
    make_query,
    split_name,
)
from repro.dns.message import MessageError
from repro.dns.resolver import extract_addresses


class TestNames:
    def test_simple_round_trip(self):
        wire = encode_name("example.org")
        name, offset = decode_name(wire, 0)
        assert name == "example.org"
        assert offset == len(wire)

    def test_root_name(self):
        assert encode_name("") == b"\x00"
        assert encode_name(".") == b"\x00"
        assert decode_name(b"\x00", 0) == ("", 1)

    def test_trailing_dot_equivalent(self):
        assert encode_name("a.b.") == encode_name("a.b")

    def test_label_too_long(self):
        with pytest.raises(NameError_):
            split_name("a" * 64 + ".org")

    def test_name_too_long(self):
        with pytest.raises(NameError_):
            split_name(".".join(["abcdefgh"] * 32))

    def test_empty_label_rejected(self):
        with pytest.raises(NameError_):
            split_name("a..b")

    def test_compression_pointer(self):
        table = {}
        first = encode_name("www.example.org", table, 0)
        second = encode_name("mail.example.org", table, len(first))
        # second should end with a 2-byte pointer to "example.org".
        assert len(second) < len(encode_name("mail.example.org"))
        data = first + second
        name, _ = decode_name(data, len(first))
        assert name == "mail.example.org"

    def test_pointer_to_full_name(self):
        table = {}
        first = encode_name("example.org", table, 0)
        second = encode_name("example.org", table, len(first))
        assert second == bytes([0xC0, 0x00])

    def test_forward_pointer_rejected(self):
        data = bytes([0xC0, 0x04, 0x00, 0x00, 0x00])
        with pytest.raises(NameError_):
            decode_name(data, 0)

    def test_pointer_loop_rejected(self):
        # name at 2 points to 0 which points to 2.
        data = bytes([0xC0, 0x02, 0xC0, 0x00])
        with pytest.raises(NameError_):
            decode_name(data, 2)

    def test_truncated_label_rejected(self):
        with pytest.raises(NameError_):
            decode_name(b"\x05ab", 0)

    @pytest.mark.parametrize("wire", [
        b"\x07exa\xfaple\x03org\x00",  # an octet above 0x7F
        b"\x07exa.ple\x03org\x00",      # a "." inside a label
        b"\x03org\x00\x03a.b\xc0\x00",  # the same, before a pointer
    ])
    def test_label_the_encoder_cannot_write_is_refused(self, wire):
        # RFC 2181 §11 allows any octet in a label, but a name here is an
        # ASCII presentation-format string: a label encode_name could not
        # write back is refused, not read as another name.
        with pytest.raises(NameError_):
            decode_name(wire, 5 if wire.startswith(b"\x03org") else 0)

    @given(
        st.lists(
            st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=20),
            min_size=1,
            max_size=5,
        )
    )
    def test_round_trip_property(self, labels):
        name = ".".join(labels)
        if len(name) > 255:
            return
        decoded, _ = decode_name(encode_name(name), 0)
        assert decoded == name


class TestRdata:
    def test_a_round_trip(self):
        data = AData("192.0.2.1").encode()
        assert len(data) == 4
        assert AData.decode(data, 0, 4).address == "192.0.2.1"

    def test_aaaa_round_trip(self):
        data = AAAAData("2001:db8::1").encode()
        assert len(data) == 16
        assert AAAAData.decode(data, 0, 16).address == "2001:db8::1"

    def test_a_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            AData.decode(bytes(3), 0, 3)

    @pytest.mark.parametrize("cls", [NSData, CNAMEData, PTRData])
    def test_name_rdata_round_trip(self, cls):
        data = cls("ns1.example.org").encode()
        assert cls.decode(data, 0, len(data)).target == "ns1.example.org"

    def test_soa_round_trip(self):
        soa = SOAData("ns1.example.org", "admin.example.org", 1, 2, 3, 4, 5)
        data = soa.encode()
        decoded = SOAData.decode(data, 0, len(data))
        assert decoded == soa

    def test_txt_round_trip(self):
        txt = TXTData((b"hello", b"world"))
        data = txt.encode()
        assert TXTData.decode(data, 0, len(data)) == txt

    def test_txt_string_too_long(self):
        with pytest.raises(ValueError):
            TXTData((b"x" * 256,))

    def test_srv_round_trip(self):
        srv = SRVData(10, 20, 8080, "service.example.org")
        data = srv.encode()
        assert SRVData.decode(data, 0, len(data)) == srv

    def test_https_round_trip(self):
        https = HTTPSData(1, "svc.example.org", ((1, b"\x02h2"),))
        data = https.encode()
        assert HTTPSData.decode(data, 0, len(data)) == https

    def test_opt_round_trip(self):
        opt = OPTData(((10, b"cookie"),))
        data = opt.encode()
        assert OPTData.decode(data, 0, len(data)) == opt

    def test_raw_fallback(self):
        raw = RawData(b"\x01\x02\x03")
        assert RawData.decode(raw.encode(), 0, 3) == raw


class TestMessage:
    def _response(self, ttls=(300, 60)):
        return Message(
            id=0x1234,
            flags=Flags(qr=True, ra=True),
            questions=(Question("example.org", RecordType.AAAA),),
            answers=tuple(
                ResourceRecord(
                    "example.org", RecordType.AAAA, DNSClass.IN, ttl,
                    AAAAData(f"2001:db8::{i + 1}"),
                )
                for i, ttl in enumerate(ttls)
            ),
        )

    def test_query_round_trip(self):
        query = make_query("example.org", RecordType.A, txid=99)
        decoded = Message.decode(query.encode())
        assert decoded.id == 99
        assert decoded.questions[0].name == "example.org"
        assert decoded.questions[0].rtype == RecordType.A
        assert not decoded.flags.qr
        assert decoded.flags.rd

    def test_response_round_trip(self):
        response = self._response()
        decoded = Message.decode(response.encode())
        assert decoded.flags.qr
        assert len(decoded.answers) == 2
        assert extract_addresses(decoded) == ["2001:db8::1", "2001:db8::2"]

    def test_compression_shrinks_message(self):
        response = self._response()
        assert len(response.encode(compress=True)) < len(
            response.encode(compress=False)
        )

    def test_with_id(self):
        assert self._response().with_id(0).id == 0

    def test_with_ttls_zero(self):
        zeroed = self._response().with_ttls(0)
        assert all(r.ttl == 0 for r in zeroed.answers)

    def test_adjust_ttls_floors_at_zero(self):
        adjusted = self._response(ttls=(10, 600)).adjust_ttls(-100)
        assert [r.ttl for r in adjusted.answers] == [0, 500]

    def test_min_ttl(self):
        assert self._response(ttls=(300, 60)).min_ttl() == 60
        assert make_query("a.org").min_ttl() is None

    def test_opt_ttl_not_rewritten(self):
        message = Message(
            answers=(
                ResourceRecord("", RecordType.OPT, 4096, 0x8000, OPTData()),
            )
        )
        assert message.with_ttls(0).answers[0].ttl == 0x8000

    def test_flags_bits_round_trip(self):
        flags = Flags(qr=True, aa=True, tc=True, rd=False, ra=True, ad=True,
                      cd=True, rcode=Rcode.NXDOMAIN)
        message = Message(0, flags, (Question("example.org", RecordType.A),))
        assert Message.decode(message.encode()).flags == flags

    def test_truncated_message_rejected(self):
        with pytest.raises(ValueError):
            Message.decode(bytes(11))

    @pytest.mark.parametrize("message,field", [
        (Message(questions=(Question("a.org", 0x10000),)), "type"),
        (Message(questions=(Question("a.org", RecordType.A, 0x10000),)), "class"),
        (Message(answers=(
            ResourceRecord("a.org", 0x10000, DNSClass.IN, 0, RawData(b"")),
        )), "type"),
        (Message(answers=(
            ResourceRecord("a.org", RecordType.A, -1, 0, AData("192.0.2.1")),
        )), "class"),
        (Message(answers=(
            ResourceRecord("a.org", 99, DNSClass.IN, 0, RawData(bytes(0x10000))),
        )), "rdata length"),
    ])
    def test_field_that_does_not_fit_is_a_message_error(self, message, field):
        """Not the bare OverflowError ``int.to_bytes`` (struct.error once
        packed) let escape."""
        with pytest.raises(MessageError, match=f"^{field} out of"):
            message.encode()

    def test_section_of_65536_entries_is_a_message_error(self):
        for section in ("questions", "answers", "authorities", "additionals"):
            message = Message(**{section: (Question("a.org"),) * 0x10000})
            with pytest.raises(MessageError, match="section count"):
                message.encode()

    def test_largest_fields_still_encode(self):
        record = ResourceRecord("a.org", 0xFFFF, 0xFFFF, 0, RawData(bytes(0xFFFF)))
        message = Message(questions=(Question("a.org", 0xFFFF, 0xFFFF),),
                          answers=(record,))
        assert Message.decode(message.encode()).answers == (record,)

    def test_question_cache_key_case_insensitive(self):
        a = Question("Example.ORG", RecordType.A).cache_key()
        b = Question("example.org", RecordType.A).cache_key()
        assert a == b

    def test_authority_and_additional_sections(self):
        message = Message(
            flags=Flags(qr=True),
            questions=(Question("example.org"),),
            authorities=(
                ResourceRecord("org", RecordType.NS, DNSClass.IN, 300,
                               NSData("ns.org")),
            ),
            additionals=(
                ResourceRecord("ns.org", RecordType.A, DNSClass.IN, 300,
                               AData("192.0.2.53")),
            ),
        )
        decoded = Message.decode(message.encode())
        assert decoded.authorities[0].rdata.target == "ns.org"
        assert decoded.additionals[0].rdata.address == "192.0.2.53"


class TestDnsCache:
    def _response(self, ttl=60):
        return Message(
            flags=Flags(qr=True),
            questions=(Question("example.org", RecordType.AAAA),),
            answers=(
                ResourceRecord("example.org", RecordType.AAAA, DNSClass.IN,
                               ttl, AAAAData("2001:db8::1")),
            ),
        )

    def test_store_and_fresh_lookup(self):
        cache = DNSCache(4)
        q = Question("example.org", RecordType.AAAA)
        cache.store(q, self._response(60), now=0.0)
        hit = cache.lookup(q, now=10.0)
        assert hit is not None
        assert hit.answers[0].ttl == 50  # aged

    def test_expiry(self):
        cache = DNSCache(4)
        q = Question("example.org", RecordType.AAAA)
        cache.store(q, self._response(5), now=0.0)
        assert cache.lookup(q, now=6.0) is None

    def test_zero_ttl_not_cached(self):
        cache = DNSCache(4)
        q = Question("example.org", RecordType.AAAA)
        cache.store(q, self._response(0), now=0.0)
        assert cache.lookup(q, now=0.0) is None

    def test_lru_eviction(self):
        cache = DNSCache(2)
        for i in range(3):
            q = Question(f"n{i}.org", RecordType.AAAA)
            r = Message(
                flags=Flags(qr=True), questions=(q,),
                answers=(ResourceRecord(f"n{i}.org", RecordType.AAAA,
                                        DNSClass.IN, 60, AAAAData("2001:db8::1")),),
            )
            cache.store(q, r, now=0.0)
        assert cache.stats.evictions == 1
        assert cache.lookup(Question("n0.org", RecordType.AAAA), now=1.0) is None
        assert cache.lookup(Question("n2.org", RecordType.AAAA), now=1.0) is not None

    def test_hit_miss_counters(self):
        cache = DNSCache(4)
        q = Question("example.org", RecordType.AAAA)
        cache.lookup(q, 0.0)
        cache.store(q, self._response(60), now=0.0)
        cache.lookup(q, 1.0)
        assert cache.stats.misses == 1 and cache.stats.hits == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            DNSCache(0)


class TestZoneAndResolver:
    def _zone(self):
        zone = Zone()
        zone.add_address("a.example.org", "2001:db8::1", ttl=300)
        zone.add_address("a.example.org", "192.0.2.1", ttl=300)
        zone.add_address("b.example.org", "2001:db8::2", ttl=60)
        return zone

    def test_lookup_by_type(self):
        zone = self._zone()
        assert len(zone.lookup("a.example.org", RecordType.AAAA)) == 1
        assert len(zone.lookup("a.example.org", RecordType.A)) == 1

    def test_any_lookup(self):
        assert len(self._zone().lookup("a.example.org", RecordType.ANY)) == 2

    def test_case_insensitive(self):
        assert self._zone().lookup("A.Example.ORG", RecordType.AAAA)

    def test_resolve_success(self):
        resolver = RecursiveResolver(self._zone())
        response = resolver.resolve(make_query("a.example.org", txid=7), now=0.0)
        assert response.id == 7
        assert response.flags.qr
        assert extract_addresses(response) == ["2001:db8::1"]

    def test_resolve_nxdomain(self):
        resolver = RecursiveResolver(self._zone())
        response = resolver.resolve(make_query("missing.org"), now=0.0)
        assert response.flags.rcode == Rcode.NXDOMAIN

    def test_resolver_cache_ages_ttls(self):
        resolver = RecursiveResolver(self._zone())
        resolver.resolve(make_query("b.example.org"), now=0.0)
        aged = resolver.resolve(make_query("b.example.org"), now=10.0)
        assert aged.answers[0].ttl == 50
        assert resolver.stats.cache_hits == 1

    def test_multiple_questions_formerr(self):
        query = Message(
            questions=(Question("a.org"), Question("b.org")),
        )
        resolver = RecursiveResolver(self._zone())
        assert resolver.resolve(query, 0.0).flags.rcode == Rcode.FORMERR

    def test_empty_question_formerr(self):
        resolver = RecursiveResolver(self._zone())
        assert resolver.resolve(Message(), 0.0).flags.rcode == Rcode.FORMERR

    def test_stub_validates_mismatched_question(self):
        stub = StubResolver()
        response = Message(
            flags=Flags(qr=True),
            questions=(Question("other.org", RecordType.AAAA),),
        )
        with pytest.raises(ValueError):
            stub.handle_response(Question("a.org", RecordType.AAAA), response, 0.0)

    def test_stub_requires_qr_flag(self):
        stub = StubResolver()
        with pytest.raises(ValueError):
            stub.handle_response(
                Question("a.org"), make_query("a.org"), 0.0
            )

    def test_stub_populates_cache(self):
        cache = DNSCache(4)
        stub = StubResolver(cache)
        resolver = RecursiveResolver(self._zone())
        q = Question("a.example.org", RecordType.AAAA)
        response = resolver.resolve(make_query("a.example.org"), 0.0)
        result = stub.handle_response(q, response, 0.0)
        assert result.addresses == ["2001:db8::1"]
        assert stub.cached_response(q, 1.0) is not None


# -- the codec against a plain RFC 1035 encoder/decoder -----------------------


def _flag_word(flags: Flags) -> int:
    word = 0
    for bit, value in (
        (15, flags.qr), (10, flags.aa), (9, flags.tc), (8, flags.rd),
        (7, flags.ra), (5, flags.ad), (4, flags.cd),
    ):
        if value:
            word += 1 << bit
    return word + (int(flags.opcode) << 11) + int(flags.rcode)


def _u16(value):
    return value.to_bytes(2, "big")


def _rdata_parts(rdata) -> list:
    """*rdata* as the reference's wire-order parts (see its docstring)."""
    if isinstance(rdata, (NSData, CNAMEData, PTRData)):
        return [("name", rdata.target)]
    if isinstance(rdata, SOAData):
        numbers = (rdata.serial, rdata.refresh, rdata.retry, rdata.expire,
                   rdata.minimum)
        return [("name", rdata.mname), ("name", rdata.rname),
                b"".join(n.to_bytes(4, "big") for n in numbers)]
    if isinstance(rdata, SRVData):
        return [_u16(rdata.priority) + _u16(rdata.weight) + _u16(rdata.port),
                ("plain-name", rdata.target)]
    if isinstance(rdata, HTTPSData):
        return [_u16(rdata.priority), ("plain-name", rdata.target)] + [
            _u16(key) + _u16(len(value)) + value
            for key, value in sorted(rdata.params)
        ]
    if isinstance(rdata, TXTData):
        return [bytes([len(chunk)]) + chunk for chunk in rdata.strings]
    if isinstance(rdata, OPTData):
        return [_u16(code) + _u16(len(value)) + value
                for code, value in rdata.options]
    if isinstance(rdata, AData):
        return [bytes(int(part) for part in rdata.address.split("."))]
    if isinstance(rdata, AAAAData):
        return [ipaddress.IPv6Address(rdata.address).packed]
    return [rdata.data]


def _plain(message: Message, rdata=_rdata_parts) -> dict:
    """*message* as the reference describes one."""
    def records(section):
        return [
            (r.name, int(r.rtype), int(r.rclass), r.ttl, rdata(r.rdata))
            for r in section
        ]

    return {
        "id": message.id,
        "flags": _flag_word(message.flags),
        "questions": [
            (q.name, int(q.rtype), int(q.rclass)) for q in message.questions
        ],
        "answers": records(message.answers),
        "authorities": records(message.authorities),
        "additionals": records(message.additionals),
    }


def _decoded_plain(message: Message) -> dict:
    """What the reference decoder returns for *message*'s wire form."""
    return _plain(message, rdata=lambda rdata: rdata.encode(None, 0))


# Few labels, in both cases, so names share suffixes and compression
# has something to point at.
_LABELS = st.sampled_from(["a", "A", "b", "example", "Example", "org", "ORG", "x1"])
_NAMES = st.lists(_LABELS, min_size=1, max_size=4).map(".".join)
_U16 = st.integers(0, 0xFFFF)
_U32 = st.integers(0, 0xFFFFFFFF)
_PAIRS = st.lists(st.tuples(_U16, st.binary(max_size=6)), max_size=3).map(tuple)
_TYPED_RDATA = st.one_of(
    st.tuples(st.just(RecordType.A), st.integers(0, 2**32 - 1).map(
        lambda n: AData(".".join(str(b) for b in n.to_bytes(4, "big"))))),
    st.tuples(st.just(RecordType.AAAA), st.integers(1, 0xFFFF).map(
        lambda n: AAAAData(f"2001:db8::{n:x}"))),
    st.tuples(st.just(RecordType.NS), _NAMES.map(NSData)),
    st.tuples(st.just(RecordType.CNAME), _NAMES.map(CNAMEData)),
    st.tuples(st.just(RecordType.PTR), _NAMES.map(PTRData)),
    st.tuples(st.just(RecordType.SOA), st.builds(
        SOAData, _NAMES, _NAMES, _U32, _U32, _U32, _U32, _U32)),
    st.tuples(st.just(RecordType.TXT), st.lists(
        st.binary(max_size=9), max_size=3).map(lambda c: TXTData(tuple(c)))),
    st.tuples(st.just(RecordType.SRV), st.builds(
        SRVData, _U16, _U16, _U16, _NAMES)),
    st.tuples(st.just(RecordType.HTTPS), st.builds(
        HTTPSData, _U16, _NAMES, _PAIRS.map(lambda p: tuple(sorted(p))))),
    # No dedicated codec: MX and two unassigned types travel as RawData;
    # 16 KiB of it pushes what follows past the reach of a pointer.
    st.tuples(st.sampled_from([RecordType.MX, 99, 65280]), st.one_of(
        st.binary(max_size=12), st.just(bytes(0x4000))).map(RawData)),
)
_RECORDS = st.one_of(
    st.builds(
        lambda name, typed, rclass, ttl: ResourceRecord(
            name, typed[0], rclass, ttl, typed[1]),
        _NAMES, _TYPED_RDATA, st.sampled_from([DNSClass.IN, DNSClass.CH, 4096]),
        _U32,
    ),
    # EDNS(0): root owner, class = payload size, TTL = flags (RFC 6891).
    st.builds(
        lambda size, ttl, options: ResourceRecord(
            "", RecordType.OPT, size, ttl, OPTData(options)),
        _U16, _U32, _PAIRS,
    ),
)
_SECTIONS = st.lists(_RECORDS, max_size=4).map(tuple)
_MESSAGES = st.builds(
    Message,
    _U16,
    st.builds(
        Flags, st.booleans(), st.sampled_from([0, 1, 2, 4, 5]), st.booleans(),
        st.booleans(), st.booleans(), st.booleans(), st.booleans(),
        st.booleans(), st.integers(0, 5),
    ),
    st.lists(st.builds(
        Question, _NAMES, st.sampled_from([RecordType.A, RecordType.AAAA, 99]),
        st.sampled_from([DNSClass.IN, DNSClass.ANY]),
    ), max_size=3).map(tuple),
    _SECTIONS, _SECTIONS, _SECTIONS,
)


# Hand-built wires: header, the question ``www.example.org AAAA IN`` at
# offset 12 (``example`` at 16, ``org`` at 24), then one record per entry
# of ``owners``, which spells its owner name; the first starts at 33.
_QUESTION = b"\x03www\x07example\x03org\x00" + b"\x00\x1c\x00\x01"
_A_RECORD = b"\x00\x01\x00\x01\x00\x00\x00\x3c\x00\x04\xc0\x00\x02\x01"


def _wire(owners, tail=_A_RECORD):
    header = b"\x12\x34\x81\x80\x00\x01" + _u16(len(owners)) + bytes(4)
    return header + _QUESTION + b"".join(owner + tail for owner in owners)


class TestAgainstRfc1035Reference:
    @settings(max_examples=150, deadline=None)
    @given(message=_MESSAGES, compress=st.booleans())
    def test_encode_equals_the_reference(self, message, compress):
        assert message.encode(compress) == reference.encode_message(
            _plain(message), compress
        )

    @settings(max_examples=100, deadline=None)
    @given(message=_MESSAGES, ttl=_U32)
    def test_encode_with_ttl_equals_encoding_the_rewritten_copy(self, message, ttl):
        rewritten = message.with_ttls(ttl)
        assert message.encode(ttl=ttl) == rewritten.encode()
        for before, after in zip(message.additionals, rewritten.additionals):
            assert after.ttl == (
                before.ttl if before.rtype == RecordType.OPT else ttl
            )

    @settings(max_examples=150, deadline=None)
    @given(message=_MESSAGES)
    def test_decode_of_its_own_output_equals_the_reference(self, message):
        wire = message.encode()
        decoded = Message._decode(wire)
        assert _decoded_plain(decoded) == reference.decode_message(wire)
        assert decoded.encode() == wire

    @pytest.mark.parametrize("owners,names", [
        ([b"\xc0\x0c"], ["www.example.org"]),  # the question name
        ([b"\xc0\x0c", b"\xc0\x0c"], ["www.example.org"] * 2),
        ([b"\x04mail\xc0\x10", b"\xc0\x21"],  # an earlier owner (at 33)
         ["mail.example.org"] * 2),
        ([b"\xc0\x10", b"\xc0\x18"], ["example.org", "org"]),  # mid-name
        ([b"\x01a\xc0\x10", b"\x01b\xc0\x21", b"\xc0\x33", b"\xc0\x45"],
         ["a.example.org", "b.a.example.org"] + ["b.a.example.org"] * 2),
        ([b"\x02ns\x03ORG\x00", b"\xc0\x21", b"\xc0\x24"],  # in full
         ["ns.ORG", "ns.ORG", "ORG"]),
        ([b"\x00", b"\xc0\x21"], ["", ""]),  # the root, and a pointer to it
    ])
    def test_pointers_resolve_as_the_reference_resolves_them(self, owners, names):
        wire = _wire(owners)
        decoded = Message._decode(wire)
        assert [record.name for record in decoded.answers] == names
        assert _decoded_plain(decoded) == reference.decode_message(wire)

    @pytest.mark.parametrize("wire,error", [
        # forward pointer, pointer to itself, two pointers at each other
        (_wire([b"\xc0\x40"]), NameError_),
        (_wire([b"\xc0\x21"]), NameError_),
        (_wire([b"\xc0\x23\xc0\x21"], tail=b""), NameError_),
        # reserved label types
        (_wire([b"\x40"]), NameError_),
        (_wire([b"\x80\x0c"]), NameError_),
        # truncated pointer, label, fixed fields, rdata
        (_wire([b"\xc0"], tail=b""), NameError_),
        (_wire([b"\x05ab"], tail=b""), NameError_),
        (_wire([b"\xc0\x0c"], tail=_A_RECORD[:9]), MessageError),
        (_wire([b"\xc0\x0c"], tail=_A_RECORD[:-1]), MessageError),
        (_wire([b"\xc0\x0c"], tail=b""), MessageError),
        # a bare header that promises a question / an answer
        (b"\x00\x00\x01\x00\x00\x01" + bytes(6), NameError_),
        (b"\x00\x00\x81\x80\x00\x00\x00\x01" + bytes(4), NameError_),
        (_wire([])[:-2], MessageError),  # truncated question
        (bytes(11), MessageError),
    ])
    def test_malformed_wires_fail_as_they_always_did(self, wire, error):
        """The exception types are the parent commit's (PR 17)."""
        with pytest.raises(error) as caught:
            Message._decode(wire)
        assert type(caught.value) is error
        with pytest.raises(ValueError):
            reference.decode_message(wire)
