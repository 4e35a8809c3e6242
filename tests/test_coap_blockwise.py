"""Block-wise transfer tests (RFC 7959)."""

import pytest
from hypothesis import given, strategies as st

from repro.coap.blockwise import (
    Block,
    BlockAssembler,
    BlockError,
    VALID_BLOCK_SIZES,
    block_for,
    split_body,
)


class TestBlockOption:
    def test_szx_mapping(self):
        assert VALID_BLOCK_SIZES == (16, 32, 64, 128, 256, 512, 1024)
        assert Block(0, False, 16).szx == 0
        assert Block(0, False, 1024).szx == 6

    def test_encode_decode_round_trip(self):
        for size in VALID_BLOCK_SIZES:
            for number in (0, 1, 15, 16, 4095):
                for more in (False, True):
                    block = Block(number, more, size)
                    assert Block.decode(block.encode()) == block

    def test_zero_block_empty_encoding(self):
        assert Block(0, False, 16).encode() == b""
        assert Block.decode(b"") == Block(0, False, 16)

    def test_invalid_size_rejected(self):
        with pytest.raises(BlockError):
            Block(0, False, 48)

    def test_szx7_rejected(self):
        with pytest.raises(BlockError):
            Block.decode(b"\x0f")

    def test_number_range(self):
        with pytest.raises(BlockError):
            Block(1 << 20, False, 16)

    def test_long_option_rejected(self):
        with pytest.raises(BlockError):
            Block.decode(bytes(4))


class TestSplitting:
    def test_split_exact_multiple(self):
        blocks = split_body(bytes(64), 32)
        assert [len(b) for b in blocks] == [32, 32]

    def test_split_remainder(self):
        blocks = split_body(bytes(70), 32)
        assert [len(b) for b in blocks] == [32, 32, 6]

    def test_empty_body_single_block(self):
        assert split_body(b"", 16) == [b""]

    def test_block_for_more_flag(self):
        block, chunk = block_for(bytes(70), 0, 32)
        assert block.more and len(chunk) == 32
        block, chunk = block_for(bytes(70), 2, 32)
        assert not block.more and len(chunk) == 6

    def test_block_for_out_of_range(self):
        with pytest.raises(BlockError):
            block_for(bytes(70), 3, 32)


class TestAssembler:
    def test_complete_assembly(self):
        body = bytes(range(100))
        assembler = BlockAssembler()
        for number in range(4):
            block, chunk = block_for(body, number, 32)
            done = assembler.add(block, chunk)
        assert done
        assert assembler.body() == body

    def test_single_block(self):
        assembler = BlockAssembler()
        assert assembler.add(Block(0, False, 32), b"short")
        assert assembler.body() == b"short"

    def test_must_start_at_zero(self):
        with pytest.raises(BlockError):
            BlockAssembler().add(Block(1, True, 32), bytes(32))

    def test_out_of_order_rejected(self):
        assembler = BlockAssembler()
        assembler.add(Block(0, True, 32), bytes(32))
        with pytest.raises(BlockError):
            assembler.add(Block(2, True, 32), bytes(32))

    def test_size_switch_rejected(self):
        assembler = BlockAssembler()
        assembler.add(Block(0, True, 32), bytes(32))
        with pytest.raises(BlockError):
            assembler.add(Block(1, True, 16), bytes(16))

    def test_short_intermediate_block_rejected(self):
        assembler = BlockAssembler()
        with pytest.raises(BlockError):
            assembler.add(Block(0, True, 32), bytes(31))

    def test_incomplete_body_raises(self):
        assembler = BlockAssembler()
        assembler.add(Block(0, True, 32), bytes(32))
        with pytest.raises(BlockError):
            assembler.body()

    def test_add_after_complete_rejected(self):
        assembler = BlockAssembler()
        assembler.add(Block(0, False, 32), b"x")
        with pytest.raises(BlockError):
            assembler.add(Block(1, False, 32), b"y")


    @given(st.binary(min_size=1, max_size=500), st.sampled_from([16, 32, 64]))
    def test_split_assemble_round_trip(self, body, size):
        assembler = BlockAssembler()
        blocks = split_body(body, size)
        for number in range(len(blocks)):
            block, chunk = block_for(body, number, size)
            assembler.add(block, chunk)
        assert assembler.body() == body

    @given(st.binary(max_size=300), st.sampled_from([16, 32, 64, 128]))
    def test_split_covers_body(self, body, size):
        blocks = split_body(body, size)
        assert b"".join(blocks) == body
        for chunk in blocks[:-1]:
            assert len(chunk) == size
