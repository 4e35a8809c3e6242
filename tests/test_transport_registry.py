"""Transport plugin registry: lookups, profiles, plugin registration,
and the one stack wiring both runnable substrates go through."""

import ast
import asyncio
import dataclasses
import pathlib

import pytest

from repro.experiments.packet_sizes import dissect_transport
from repro.transports.registry import (
    TransportCapabilityError,
    TransportProfile,
    UnknownTransportError,
    get_profile,
    registry,
    transport_names,
)

BUILTINS = ("udp", "dtls", "coap", "coaps", "oscore")


class TestLookup:
    def test_builtins_registered(self):
        for name in BUILTINS + ("quic",):
            assert name in registry
            assert registry.get(name).name == name

    def test_unknown_transport_raises(self):
        with pytest.raises(UnknownTransportError):
            registry.get("tcp")

    def test_unknown_transport_is_value_error(self):
        """Callers that predate the registry catch ValueError."""
        with pytest.raises(ValueError):
            get_profile("smtp")

    def test_error_names_known_transports(self):
        with pytest.raises(UnknownTransportError, match="udp"):
            registry.get("bogus")

    def test_names_order_stable(self):
        names = transport_names()
        assert names[: len(BUILTINS)] == list(BUILTINS)
        assert "quic" in names

    def test_simulatable_filter_excludes_quic(self):
        names = transport_names(simulatable_only=True)
        assert set(names) == set(BUILTINS)


class TestProfiles:
    def test_default_ports(self):
        assert registry.get("udp").default_port == 53
        assert registry.get("dtls").default_port == 853
        assert registry.get("coap").default_port == 5683
        assert registry.get("coaps").default_port == 5684

    def test_coap_based_flags(self):
        for name in ("coap", "coaps", "oscore"):
            assert registry.get(name).coap_based, name
        for name in ("udp", "dtls"):
            assert not registry.get(name).coap_based, name

    def test_secure_flags(self):
        for name in ("dtls", "coaps", "oscore", "quic"):
            assert registry.get(name).secure, name
        for name in ("udp", "coap"):
            assert not registry.get(name).secure, name

    def test_quic_is_model_only(self):
        profile = registry.get("quic")
        assert not profile.simulatable
        with pytest.raises(TransportCapabilityError):
            profile.build_server(None)
        with pytest.raises(TransportCapabilityError):
            profile.build_client(None, None, 0)

    def test_quic_dissects(self):
        dissections = dissect_transport("quic")
        assert dissections
        assert all(d.transport == "quic" for d in dissections)
        # The modeled AEAD/header overhead is pure security bytes.
        assert all(d.security_bytes > 0 for d in dissections)

    def test_dissection_dispatches_through_registry(self):
        udp = dissect_transport("udp")
        assert {d.message for d in udp} == {
            "query", "response_a", "response_aaaa"
        }


class TestPluginRegistration:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError):
            registry.register(
                TransportProfile(name="udp", display_name="UDP2", default_port=1)
            )

    def test_register_and_dissect_plugin(self):
        from repro.experiments.packet_sizes import dissect_plain_dns

        profile = TransportProfile(
            name="rawdns",
            display_name="RawDNS",
            default_port=9953,
            in_figure6=False,
            dissector=lambda profile, method=None, name=None, with_echo=False:
                dissect_plain_dns(profile, name=name),
        )
        registry.register(profile)
        try:
            dissections = dissect_transport("rawdns")
            assert all(d.transport == "rawdns" for d in dissections)
            assert all(d.security_bytes == 0 for d in dissections)
        finally:
            registry.unregister("rawdns")
        with pytest.raises(UnknownTransportError):
            registry.get("rawdns")

    def test_register_before_first_lookup_loads_builtins(self):
        """A plugin overriding a builtin before any lookup must not
        wedge the lazy builtin registration (fresh interpreter)."""
        import subprocess
        import sys

        script = (
            "from repro.transports.registry import TransportProfile, registry\n"
            "registry.register(TransportProfile(name='coap',"
            " display_name='X', default_port=1), replace=True)\n"
            "assert registry.get('udp').default_port == 53\n"
            "assert registry.get('coap').default_port == 1\n"
            "assert {'udp','dtls','coap','coaps','oscore','quic'}"
            " <= set(registry.names())\n"
            "print('ok')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env={"PYTHONPATH": "src"},
            cwd=__file__.rsplit("/tests/", 1)[0],
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "ok"

    def test_replace_flag_allows_override(self):
        original = registry.get("udp")
        try:
            registry.register(
                TransportProfile(
                    name="udp", display_name="UDPx", default_port=54
                ),
                replace=True,
            )
            assert registry.get("udp").default_port == 54
        finally:
            registry.register(original, replace=True)
        assert registry.get("udp").default_port == 53


# -- one stack wiring for the simulator and the live runtime ---------------


def _sim_stack(name):
    """``(server, client)`` as ``ScenarioRunner.run`` builds them."""
    from repro.dns import RecursiveResolver, Zone
    from repro.scenarios import Scenario
    from repro.sim import Simulator
    from repro.transports.registry import TransportEnv

    scenario = Scenario(transport=name)
    sim = Simulator(seed=1)
    topology = scenario.topology.build(sim)
    env = TransportEnv(
        sim=sim, topology=topology, resolver=RecursiveResolver(Zone()),
        scenario=scenario,
    )
    profile = registry.get(name)
    profile.provision(env)
    env.server = profile.build_server(env)
    env.target = env.server.endpoint
    return env.server.server, profile.build_client(env, topology.clients[0], 0)


def _live_stack(name):
    """``(server, client)`` as ``DocLiveServer``/``LiveResolver`` build
    them on loopback."""
    from repro.live import DocLiveServer, LiveResolver

    async def body():
        async with DocLiveServer(transport=name, port=0, num_names=2) as server:
            async with LiveResolver(server.endpoint, transport=name) as resolver:
                return server._server, resolver._client

    return asyncio.run(body())


def _layers(stack):
    """Class names from the stack object down through its secure-socket
    adapters, stopping at the substrate's own socket."""
    names = [type(stack).__name__]
    layer = getattr(stack, "coap", stack).socket
    while hasattr(layer, "socket"):
        names.append(type(layer).__name__)
        layer = layer.socket
    return names


class TestOneStackWiring:
    @pytest.mark.parametrize("name", BUILTINS)
    def test_sim_and_live_build_the_same_classes(self, name):
        sim_server, sim_client = _sim_stack(name)
        live_server, live_client = _live_stack(name)
        assert _layers(sim_server) == _layers(live_server)
        assert _layers(sim_client) == _layers(live_client)
        # Security is where the profile says it is on both.
        profile = registry.get(name)
        for client in (sim_client, live_client):
            assert (len(_layers(client)) == 2) == profile.has_handshake
            assert (
                getattr(client, "oscore_context", None) is not None
            ) == profile.object_security

    def test_a_registered_profile_runs_on_both_substrates(self):
        """Adding a transport is a registration: nothing outside the
        registry lists the names it can wire."""
        from repro.live import DocLiveServer, LiveResolver
        from repro.scenarios import (
            Scenario, ScenarioRunner, TopologySpec, WorkloadSpec,
        )

        registry.register(dataclasses.replace(
            registry.get("coap"), name="throwaway", display_name="Throwaway",
            in_figure6=False,
        ))
        try:
            result = ScenarioRunner().run(Scenario(
                transport="throwaway",
                topology=TopologySpec(loss=0.0),
                workload=WorkloadSpec(num_queries=4, num_names=2),
            ))
            assert result.success_rate == 1.0
            assert len(result.outcomes) == 4

            async def body():
                server = DocLiveServer(
                    transport="throwaway", port=0, num_names=2
                )
                async with server:
                    resolver = LiveResolver(
                        server.endpoint, transport="throwaway"
                    )
                    async with resolver:
                        answer = await resolver.resolve(server.names[0])
                    return answer, server.stats()

            answer, stats = asyncio.run(asyncio.wait_for(body(), timeout=20))
            assert answer.ok and answer.addresses
            assert stats["transport"] == "throwaway"
            assert stats["queries_handled"] == 1
        finally:
            registry.unregister("throwaway")


def _transport_literal(node, names):
    if isinstance(node, ast.Constant):
        return node.value in names if isinstance(node.value, str) else False
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_transport_literal(item, names) for item in node.elts)
    return False


def test_no_transport_name_comparison_outside_profiles():
    """``transports/profiles.py`` is the one place that knows a
    transport by name; everything else asks the profile (``secure``,
    ``coap_based``, ``has_handshake``, ``object_security``, ...)."""
    names = set(BUILTINS) | {"quic"}
    source = pathlib.Path(__file__).parent.parent / "src" / "repro"
    offenders = []
    for path in sorted(source.rglob("*.py")):
        if path.name == "profiles.py" and path.parent.name == "transports":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare) and any(
                _transport_literal(operand, names)
                for operand in [node.left, *node.comparators]
            ):
                offenders.append(f"{path.relative_to(source)}:{node.lineno}")
    assert offenders == []
