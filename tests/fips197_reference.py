"""Textbook AES-128 (FIPS 197 §5), the oracle for ``repro.crypto.aes``.

Written to share nothing with the kernel under test: no lookup tables
beyond the S-box, the S-box derived its own way (brute-force inverse in
GF(2^8) plus the affine map, where the kernel walks powers of the
generator 3), the state a list of sixteen bytes in FIPS order, and
SubBytes, ShiftRows, MixColumns and AddRoundKey spelled out byte by
byte. Slow (~0.3 ms per block) and meant to be.
"""

from typing import List


def _gf_mul(a: int, b: int) -> int:
    """Multiply in GF(2^8) modulo x^8 + x^4 + x^3 + x + 1 (§4.2)."""
    product = 0
    while b:
        if b & 1:
            product ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        b >>= 1
    return product


def _sbox_entry(value: int) -> int:
    """§5.1.1: multiplicative inverse (0 maps to 0), then the affine map."""
    inverse = next((c for c in range(1, 256) if _gf_mul(value, c) == 1), 0)
    result = 0
    for bit in range(8):
        parity = (
            (inverse >> bit)
            ^ (inverse >> ((bit + 4) % 8))
            ^ (inverse >> ((bit + 5) % 8))
            ^ (inverse >> ((bit + 6) % 8))
            ^ (inverse >> ((bit + 7) % 8))
            ^ (0x63 >> bit)
        ) & 1
        result |= parity << bit
    return result


SBOX = [_sbox_entry(value) for value in range(256)]


def _expand_key(key: bytes) -> List[List[int]]:
    """§5.2: forty-four 4-byte words, returned as eleven 16-byte round keys."""
    words = [list(key[4 * i : 4 * i + 4]) for i in range(4)]
    rcon = 1
    for i in range(4, 44):
        temp = list(words[i - 1])
        if i % 4 == 0:
            temp = temp[1:] + temp[:1]  # RotWord
            temp = [SBOX[b] for b in temp]  # SubWord
            temp[0] ^= rcon
            rcon = _gf_mul(rcon, 2)
        words.append([a ^ b for a, b in zip(words[i - 4], temp)])
    return [sum(words[4 * r : 4 * r + 4], []) for r in range(11)]


def _add_round_key(state: List[int], round_key: List[int]) -> List[int]:
    return [s ^ k for s, k in zip(state, round_key)]


def _sub_bytes(state: List[int]) -> List[int]:
    return [SBOX[s] for s in state]


def _shift_rows(state: List[int]) -> List[int]:
    # state[r + 4c] is row r, column c; row r rotates left by r columns.
    return [state[r + 4 * ((c + r) % 4)] for c in range(4) for r in range(4)]


def _mix_columns(state: List[int]) -> List[int]:
    out = []
    for c in range(4):
        a0, a1, a2, a3 = state[4 * c : 4 * c + 4]
        out += [
            _gf_mul(a0, 2) ^ _gf_mul(a1, 3) ^ a2 ^ a3,
            a0 ^ _gf_mul(a1, 2) ^ _gf_mul(a2, 3) ^ a3,
            a0 ^ a1 ^ _gf_mul(a2, 2) ^ _gf_mul(a3, 3),
            _gf_mul(a0, 3) ^ a1 ^ a2 ^ _gf_mul(a3, 2),
        ]
    return out


def encrypt_block(key: bytes, block: bytes) -> bytes:
    """The §5.1 Cipher() for Nk = 4, Nr = 10."""
    assert len(key) == 16 and len(block) == 16
    round_keys = _expand_key(key)
    state = _add_round_key(list(block), round_keys[0])
    for round_key in round_keys[1:10]:
        state = _add_round_key(
            _mix_columns(_shift_rows(_sub_bytes(state))), round_key
        )
    state = _add_round_key(_shift_rows(_sub_bytes(state)), round_keys[10])
    return bytes(state)
