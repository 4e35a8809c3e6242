"""AES-128 block cipher (FIPS 197), pure Python, on a 128-bit integer state.

Only the forward cipher is implemented: every mode used in this
repository (CCM = CTR + CBC-MAC) needs encryption only.

State and table layout
----------------------
The 16-byte state is one Python ``int``; byte *i* of the block (FIPS 197
``in[i]``, state row ``i % 4``, column ``i // 4``) sits at bits
``8 * (15 - i)``, i.e. the int is the block read big-endian, and column
*c* is the 32-bit word at bits ``32 * (3 - c)``. One int instead of four
32-bit words means a round has no per-word shift, mask and repack:
``value.to_bytes(16, "big")`` splits the state into its bytes in one C
call, and everything else is table lookups and XORs of whole states.

A round (SubBytes, ShiftRows, MixColumns, AddRoundKey) is sixteen
lookups, one table per byte position. ShiftRows moves row *r* left by
*r* columns, so byte *i* lands in column ``(i // 4 - i % 4) % 4``;
MixColumns then spreads its S-box output *s* over the four bytes of that
column as ``(2s, s, s, 3s)`` rotated down by *r* rows. ``_ROUND_TABLES[i][x]``
is that 32-bit contribution already shifted into the destination column,
so XOR-ing the sixteen entries and the 128-bit round key yields the next
state. The final round has no MixColumns: ``_FINAL_TABLES[i][x]`` is
``S[x]`` shifted to output byte ``4 * column + r``.

The 32 tables hold 8192 ints of up to 128 bits — about 0.4 MiB, the
price of never shifting at run time — and are built at import in under
a millisecond.

Many blocks in one pass
-----------------------
:meth:`AES128.encrypt_lanes` enciphers *n* independent blocks at once.
They sit side by side in one int of ``128 * n`` bits, block 0 in the
most significant *lane*, so the int is the n blocks read big-endian one
after the other and every lane has the state layout above. A round then
costs a fixed number of whole-int operations whatever *n* is: SubBytes
is one ``bytes.translate`` of the ``16 * n`` state bytes; ShiftRows is
seven masks and six shifts (row *r* moves *r* columns left, the bytes
that wrap move ``4 - r`` columns right, none leaves its lane);
MixColumns is two word rotations and one ``xtime`` translate, via the
column parity ``t = a0 ^ a1 ^ a2 ^ a3`` and ``b_i = a_i ^ t ^
xtime(a_i ^ a_i+1)``; AddRoundKey is one XOR with the round key
repeated in every lane. The masks of every width up to
:data:`MAX_LANES` are built at import (about 30 KiB), and each key's
round keys are repeated once, at that widest width; a narrower pass
masks them down.

Why two formulations: a pass does about 40 whole-int operations per
round where the table kernel does 32 small ones per block, and the
whole-int ones cost little more for 16 lanes than for one. On CPython
3.11 (2-core shared x86-64 host, best of 7) a block costs 7.9 µs and a
pass 15.2 µs at 1 lane, 17.1 at 2, 22.0 at 6, 24.0 at 8 and 32.6 at 16
(2.0 µs per lane): twice a block alone, even at two lanes, a third of
the table kernel's cost per block at eight. So
:meth:`~AES128.encrypt_int` stays the one single-block kernel, for work
that is one block after another (a CBC-MAC chain), and the pass is for
blocks known together (CCM's B0 and counter blocks).

Table-lookup AES is **not constant-time**: which cache lines a block
touches depends on key and data, exactly as with the four 32-bit
T-tables this layout replaces; the pass's translates index by state
bytes the same way. It protects simulated credentials.
"""

from __future__ import annotations

from typing import List, Tuple

_SBOX = [0] * 256


def _initialise_sbox() -> None:
    # Build the S-box from the multiplicative inverse in GF(2^8)
    # followed by the affine transformation, per FIPS 197 §5.1.1.
    p = q = 1
    _SBOX[0] = 0x63
    while True:
        # p := p * 3 in GF(2^8)
        p ^= (p << 1) ^ (0x1B if p & 0x80 else 0)
        p &= 0xFF
        # q := q / 3 (multiply by inverse of 3, via repeated doubling)
        q ^= q << 1
        q ^= q << 2
        q ^= q << 4
        q &= 0xFF
        if q & 0x80:
            q ^= 0x09
        transformed = (
            q
            ^ ((q << 1) | (q >> 7))
            ^ ((q << 2) | (q >> 6))
            ^ ((q << 3) | (q >> 5))
            ^ ((q << 4) | (q >> 4))
        ) & 0xFF
        _SBOX[p] = transformed ^ 0x63
        if p == 1:
            break


_initialise_sbox()


def _xtime(value: int) -> int:
    value <<= 1
    if value & 0x100:
        value ^= 0x11B
    return value & 0xFF


def _build_tables() -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
    """The sixteen round and sixteen final-round tables (module docstring)."""
    # Column contribution of a row-r byte: (2s, s, s, 3s) rotated down r rows.
    columns: List[List[int]] = [[], [], [], []]
    for s in _SBOX:
        s2 = _xtime(s)
        word = (s2 << 24) | (s << 16) | (s << 8) | (s2 ^ s)
        for row in range(4):
            columns[row].append(word)
            word = (word >> 8) | ((word & 0xFF) << 24)
    round_tables = []
    final_tables = []
    for i in range(16):
        row = i % 4
        column = (i // 4 - row) % 4
        shift = 32 * (3 - column)
        round_tables.append(tuple([word << shift for word in columns[row]]))
        shift = 8 * (15 - (4 * column + row))
        final_tables.append(tuple([s << shift for s in _SBOX]))
    return tuple(round_tables), tuple(final_tables)


_ROUND_TABLES, _FINAL_TABLES = _build_tables()

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]

#: Most blocks one :meth:`AES128.encrypt_lanes` pass takes.
MAX_LANES = 16

_SBOX_BYTES = bytes(_SBOX)
_XTIME_BYTES = bytes(_xtime(value) for value in range(256))


def _repeat(pattern: int, width: int, count: int) -> int:
    """*pattern* in each of *count* fields of *width* bytes."""
    return int.from_bytes(pattern.to_bytes(width, "big") * count, "big")


def _state_mask(select) -> int:
    """The one-block mask of the state bytes whose (row, column) *select*s."""
    return sum(
        0xFF << 8 * (15 - i) for i in range(16) if select(i % 4, i // 4)
    )


# One block's masks, in the order encrypt_lanes unpacks them: row 0
# (stays), rows 1-3 moving left by 32, 64, 96 bits (columns >= r), rows
# 1-3 wrapping right by 96, 64, 32 bits (columns < r); then the word
# masks of MixColumns' rotations by 8 and 16 bits; then the whole lane.
_BLOCK_MASKS = (
    _state_mask(lambda row, column: row == 0),
    *(_state_mask(lambda row, column, r=r: row == r and column >= r)
      for r in (1, 2, 3)),
    *(_state_mask(lambda row, column, r=r: row == r and column < r)
      for r in (1, 2, 3)),
    _repeat(0xFFFFFF00, 4, 4),
    _repeat(0x000000FF, 4, 4),
    _repeat(0xFFFF0000, 4, 4),
    _repeat(0x0000FFFF, 4, 4),
    (1 << 128) - 1,
)

#: ``_LANE_MASKS[n]``: the masks above repeated in each of n lanes.
_LANE_MASKS = (None,) + tuple(
    tuple(mask * _repeat(1, 16, lanes) for mask in _BLOCK_MASKS)
    for lanes in range(1, MAX_LANES + 1)
)


class AES128:
    """AES with a 128-bit key; 10 rounds.

    >>> cipher = AES128(bytes(16))
    >>> hex(cipher.encrypt_int(0))
    '0x66e94bd4ef8a2c3b884cfa59ca342b2e'
    """

    block_size = 16

    def __init__(self, key: bytes) -> None:
        if len(key) != 16:
            raise ValueError("AES-128 requires a 16-byte key")
        round_keys = self._expand_key(key)
        self._first_key = round_keys[0]
        self._middle_keys = round_keys[1:10]
        self._last_key = round_keys[10]
        # The same keys in every one of MAX_LANES lanes, for encrypt_lanes.
        widest = _repeat(1, 16, MAX_LANES)
        self._lane_keys = tuple(round_key * widest for round_key in round_keys)

    @staticmethod
    def _expand_key(key: bytes) -> Tuple[int, ...]:
        """The eleven round keys, each one 128-bit int in state layout."""
        words = [int.from_bytes(key[i : i + 4], "big") for i in range(0, 16, 4)]  # noqa: E501
        for i in range(4, 44):
            temp = words[i - 1]
            if i % 4 == 0:
                temp = ((temp << 8) | (temp >> 24)) & 0xFFFFFFFF
                temp = (
                    (_SBOX[(temp >> 24) & 0xFF] << 24)
                    | (_SBOX[(temp >> 16) & 0xFF] << 16)
                    | (_SBOX[(temp >> 8) & 0xFF] << 8)
                    | _SBOX[temp & 0xFF]
                )
                temp ^= _RCON[i // 4 - 1] << 24
            words.append(words[i - 4] ^ temp)
        return tuple(
            (words[i] << 96) | (words[i + 1] << 64) | (words[i + 2] << 32) | words[i + 3]
            for i in range(0, 44, 4)
        )

    def encrypt_int(self, value: int) -> int:
        """Encrypt one block given, and returned, as a 128-bit int.

        *value* is the block read big-endian and must lie in
        ``0 .. 2**128 - 1``; anything else raises ``OverflowError``.
        CCM works on this form directly.
        """
        # Hot path — this function is most of the OSCORE/DTLS transports'
        # CPU profile. Unpacking the sixteen state bytes into locals
        # measured faster than sixteen ``state[i]`` subscripts.
        (
            t0, t1, t2, t3, t4, t5, t6, t7,
            t8, t9, t10, t11, t12, t13, t14, t15,
        ) = _ROUND_TABLES  # fmt: skip
        value ^= self._first_key
        for round_key in self._middle_keys:
            (
                b0, b1, b2, b3, b4, b5, b6, b7,
                b8, b9, b10, b11, b12, b13, b14, b15,
            ) = value.to_bytes(16, "big")  # fmt: skip
            value = (
                t0[b0] ^ t1[b1] ^ t2[b2] ^ t3[b3]
                ^ t4[b4] ^ t5[b5] ^ t6[b6] ^ t7[b7]
                ^ t8[b8] ^ t9[b9] ^ t10[b10] ^ t11[b11]
                ^ t12[b12] ^ t13[b13] ^ t14[b14] ^ t15[b15]
                ^ round_key
            )  # fmt: skip
        # Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
        (
            t0, t1, t2, t3, t4, t5, t6, t7,
            t8, t9, t10, t11, t12, t13, t14, t15,
        ) = _FINAL_TABLES  # fmt: skip
        (
            b0, b1, b2, b3, b4, b5, b6, b7,
            b8, b9, b10, b11, b12, b13, b14, b15,
        ) = value.to_bytes(16, "big")  # fmt: skip
        return (
            t0[b0] ^ t1[b1] ^ t2[b2] ^ t3[b3]
            ^ t4[b4] ^ t5[b5] ^ t6[b6] ^ t7[b7]
            ^ t8[b8] ^ t9[b9] ^ t10[b10] ^ t11[b11]
            ^ t12[b12] ^ t13[b13] ^ t14[b14] ^ t15[b15]
            ^ self._last_key
        )  # fmt: skip

    def encrypt_lanes(self, value: int, lanes: int) -> int:
        """Encrypt *lanes* blocks in one pass (module docstring).

        *value* is the blocks read big-endian one after the other, block
        0 first, and must lie in ``0 .. 2**(128 * lanes) - 1`` (else
        ``OverflowError``); the result is their ciphertexts in the same
        layout. *lanes* is 1 to :data:`MAX_LANES`.
        """
        if not 0 < lanes <= MAX_LANES:
            raise ValueError(f"a pass takes 1 to {MAX_LANES} blocks, not {lanes}")
        (
            row0, left1, left2, left3, wrap1, wrap2, wrap3,
            high24, low8, high16, low16, whole,
        ) = _LANE_MASKS[lanes]  # fmt: skip
        size = 16 * lanes
        from_bytes = int.from_bytes
        first, *middle, last = self._lane_keys
        value ^= first & whole
        for round_key in middle:
            # SubBytes first: it commutes with ShiftRows, and to_bytes
            # rejects a value outside the lanes as encrypt_int does.
            state = from_bytes(
                value.to_bytes(size, "big").translate(_SBOX_BYTES), "big"
            )
            state = (
                (state & row0)
                | ((state & left1) << 32) | ((state & left2) << 64)
                | ((state & left3) << 96) | ((state & wrap1) >> 96)
                | ((state & wrap2) >> 64) | ((state & wrap3) >> 32)
            )  # fmt: skip
            # MixColumns: pairs = a_i ^ a_i+1, parity = the column's XOR.
            pairs = state ^ ((state << 8) & high24) ^ ((state >> 24) & low8)
            parity = pairs ^ ((pairs << 16) & high16) ^ ((pairs >> 16) & low16)
            value = (
                state ^ parity ^ (round_key & whole)
                ^ from_bytes(
                    pairs.to_bytes(size, "big").translate(_XTIME_BYTES), "big"
                )
            )  # fmt: skip
        # Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
        state = from_bytes(
            value.to_bytes(size, "big").translate(_SBOX_BYTES), "big"
        )
        return (
            (state & row0)
            | ((state & left1) << 32) | ((state & left2) << 64)
            | ((state & left3) << 96) | ((state & wrap1) >> 96)
            | ((state & wrap2) >> 64) | ((state & wrap3) >> 32)
        ) ^ (last & whole)  # fmt: skip
