"""Tier-1 run of ``tests/handler_fuzz.py``: the corpus and a fixed
number of mutants per configuration, under a fixed seed, must leave
every invariant standing."""

from __future__ import annotations

import pytest

import handler_fuzz


@pytest.mark.parametrize(
    "secured,capacity", handler_fuzz.CONFIGURATIONS,
    ids=[f"{'oscore' if secured else 'coap'}-cache{capacity}"
         for secured, capacity in handler_fuzz.CONFIGURATIONS],
)
def test_no_datagram_breaks_the_doc_server(secured, capacity):
    finds = list(handler_fuzz.fuzz(
        5000, configurations=((secured, capacity),)
    ))
    assert finds == []


def test_the_harness_sees_an_escape(monkeypatch):
    from repro.doc import DocServer

    def broken(self, body, routed=False):
        raise KeyError("planted")

    monkeypatch.setattr(DocServer, "answer", broken)
    finds = list(handler_fuzz.fuzz(0, configurations=((False, 0),)))
    assert finds and all("KeyError: 'planted'" in f.failure for f in finds)
