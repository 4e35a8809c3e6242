"""Transport plugin registry.

Every DNS transport the reproduction compares — UDP, DTLS, CoAP,
CoAPS, OSCORE, and the modeled QUIC — is described by one
:class:`TransportProfile`: its name, default port, the two builders
that wire its sans-IO server and client stack, security provisioning
and packet-dissection hooks. The simulator, the live runtime, the fleet
engine and the CLI all dispatch through the registry, so adding a
transport variant is a registration, not a refactor:

    from repro.transports.registry import TransportProfile, registry

    registry.register(TransportProfile(name="mytransport", ...))

The built-in profiles live in :mod:`repro.transports.profiles` and are
registered lazily on first lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.oscore.context import RecipientContexts, client_context


class UnknownTransportError(ValueError):
    """Lookup of a transport name that no profile claims."""


class TransportCapabilityError(ValueError):
    """A profile was asked for something it does not support (e.g.
    simulating the analytically-modeled QUIC transport)."""


@dataclass
class ServerHandle:
    """The simulator's view of a built server: where it listens plus any
    secure-socket adapter clients must pre-establish against."""

    port: int
    endpoint: Tuple[str, int]
    server: object = None
    adapter: object = None


@dataclass
class TransportEnv:
    """What :meth:`TransportProfile.build_server` and
    :meth:`~TransportProfile.build_client` stand one simulated run up
    from.

    ``scenario`` is the :class:`repro.scenarios.Scenario` being run;
    its ``method``, ``scheme``, ``block_size`` and cache placement
    become the builders' keyword wiring.
    """

    sim: object
    topology: object
    resolver: object
    scenario: object
    #: The OSCORE (master secret, master salt), set by a provisioner:
    #: the server holds a context per client kid, and each client has
    #: its own Sender ID.
    oscore_master: Optional[Tuple[bytes, bytes]] = None
    server: Optional[ServerHandle] = None
    #: Where clients send requests (the server, or a forward proxy).
    target: Optional[Tuple[str, int]] = None


#: Client-side source port for session-oriented transports, matching
#: the testbed configuration (one DTLS/CoAP session per client).
CLIENT_PORT = 6000


@dataclass(frozen=True)
class TransportProfile:
    """One DNS transport, declared rather than special-cased.

    The two stack builders take what every substrate has — a clock, a
    bound socket, and the resolver (server side) or the server's
    endpoint (client side) — plus keyword wiring. The simulator
    (:meth:`build_server`/:meth:`build_client`) and the live runtime
    (:class:`~repro.live.server.DocLiveServer`,
    :class:`~repro.live.client.LiveResolver`) pass the same keywords
    with their own values, and a builder reads the ones its stack has a
    use for: ``scheme``, ``oscore_context``, ``psk_store`` and
    ``fastpath_capacity`` on the server; ``target`` (where requests go
    when that is a proxy, not the server), ``method``, ``scheme``,
    ``block_size``, ``dns_cache``, ``coap_cache``, ``oscore_context``,
    ``psk``/``psk_identity`` and ``preestablished_with`` on the client.
    Dissectors receive the profile itself plus the message parameters,
    so closely related transports (CoAP/CoAPS) can share one
    parameterized implementation.
    """

    name: str
    display_name: str
    default_port: int
    #: Encrypts application traffic (DTLS record layer or OSCORE).
    secure: bool = False
    #: Runs DNS inside CoAP (and can therefore sit behind a CoAP proxy).
    coap_based: bool = False
    #: Can be driven end-to-end, in the simulator and on real sockets
    #: (QUIC is model-only).
    simulatable: bool = True
    #: Appears in the Figure 6 dissection grid.
    in_figure6: bool = True
    #: Prepends DTLS handshake flights in the Figure 6 grid.
    has_handshake: bool = False
    #: Adds the replay-window Echo variant in the Figure 6 grid.
    echo_variant: bool = False
    #: ``provisioner(env)`` runs once per simulated run before any
    #: builder (e.g. derive OSCORE contexts).
    provisioner: Optional[Callable[[TransportEnv], None]] = None
    #: ``server_builder(clock, socket, resolver, **wiring) -> server``
    server_builder: Optional[Callable[..., object]] = None
    #: ``client_builder(clock, socket, server, **wiring) -> client``
    #: where *server* is the server's endpoint and the client exposes
    #: ``resolve(name, rtype, on_result)``.
    client_builder: Optional[Callable[..., object]] = None
    #: ``dissector(profile, method, name, with_echo) -> [PacketDissection]``
    dissector: Optional[Callable[..., list]] = None

    @property
    def object_security(self) -> bool:
        """Protects each CoAP message end to end under a pre-shared
        context (OSCORE) instead of securing the hop with a session:
        both ends need their context before the first message, and
        whatever handles the outer message — a proxy, the endpoint's
        own CoAP cache — sees nothing it could cache."""
        return self.secure and self.coap_based and not self.has_handshake

    def provision(self, env: TransportEnv) -> None:
        if self.provisioner is not None:
            self.provisioner(env)

    def _builder(self, builder: Optional[Callable[..., object]]):
        if builder is None:
            raise TransportCapabilityError(
                f"transport {self.name!r} cannot be simulated"
            )
        return builder

    def build_server(self, env: TransportEnv) -> ServerHandle:
        """The simulator's server side: the stack on ``default_port``
        of the topology's resolver host."""
        builder = self._builder(self.server_builder)
        host = env.topology.resolver_host
        server = builder(
            env.sim,
            host.bind(self.default_port),
            env.resolver,
            scheme=env.scenario.caching_spec.scheme,
            oscore_context=(
                RecipientContexts(*env.oscore_master) if env.oscore_master else None
            ),
        )
        adapter = None
        if self.has_handshake:
            # The secure socket is the one the stack was built on; a
            # DoC server's sits under its CoAP endpoint.
            adapter = (server.coap if self.coap_based else server).socket
        return ServerHandle(
            port=self.default_port,
            endpoint=(host.address, self.default_port),
            server=server,
            adapter=adapter,
        )

    def build_client(self, env: TransportEnv, node, index: int):
        """The simulator's client side: the stack on *node*, with the
        scenario's caches and the run's provisioned security state."""
        builder = self._builder(self.client_builder)
        scenario = env.scenario
        caching = scenario.caching_spec
        # Plain DNS over UDP keeps no session and takes an ephemeral port.
        session = self.secure or self.coap_based
        dns_cache = coap_cache = None
        if caching.client_dns:
            from repro.dns import DNSCache

            dns_cache = DNSCache(caching.client_dns_capacity)
        if caching.client_coap and self.coap_based:
            from repro.coap.cache import CoapCache

            coap_cache = CoapCache(caching.client_coap_capacity)
        return builder(
            env.sim,
            node.bind(CLIENT_PORT) if session else node.bind(),
            env.server.endpoint,
            target=env.target,
            method=scenario.method,
            scheme=caching.scheme,
            block_size=scenario.block_size,
            dns_cache=dns_cache,
            coap_cache=coap_cache,
            oscore_context=(
                client_context(*env.oscore_master, index) if env.oscore_master else None
            ),
            # The paper's pre-initialised DTLS sessions: no handshake on
            # the air. The builder establishes the pair where it creates
            # its adapter, because the draws this takes from the run's
            # RNG are part of every banked digest.
            preestablished_with=(
                (env.server.adapter, (node.address, CLIENT_PORT))
                if self.has_handshake
                else None
            ),
        )

    def dissect(self, method=None, name=None, with_echo: bool = False) -> list:
        if self.dissector is None:
            raise TransportCapabilityError(
                f"transport {self.name!r} has no packet dissector"
            )
        return self.dissector(self, method=method, name=name, with_echo=with_echo)


class TransportRegistry:
    """Name → :class:`TransportProfile` mapping with ordered listing."""

    def __init__(self) -> None:
        self._profiles: Dict[str, TransportProfile] = {}
        self._builtins_loaded = False
        self._loading_builtins = False

    def register(
        self, profile: TransportProfile, replace: bool = False
    ) -> TransportProfile:
        # Load the builtins first so a plugin overriding one of them
        # (replace=True) cannot race their lazy registration.
        self._ensure_builtins()
        if not replace and profile.name in self._profiles:
            raise ValueError(f"transport {profile.name!r} already registered")
        self._profiles[profile.name] = profile
        return profile

    def unregister(self, name: str) -> None:
        self._ensure_builtins()
        self._profiles.pop(name, None)

    def get(self, name: str) -> TransportProfile:
        self._ensure_builtins()
        try:
            return self._profiles[name]
        except KeyError:
            raise UnknownTransportError(
                f"unknown transport {name!r} (known: {', '.join(self._profiles)})"
            ) from None

    def names(self, simulatable_only: bool = False) -> List[str]:
        self._ensure_builtins()
        return [
            name
            for name, profile in self._profiles.items()
            if profile.simulatable or not simulatable_only
        ]

    def __iter__(self) -> Iterator[TransportProfile]:
        self._ensure_builtins()
        return iter(list(self._profiles.values()))

    def __contains__(self, name: str) -> bool:
        self._ensure_builtins()
        return name in self._profiles

    def _ensure_builtins(self) -> None:
        if self._builtins_loaded or self._loading_builtins:
            return
        # Mark loaded only after a successful import so a failing
        # profiles module surfaces its real error (and can retry)
        # instead of leaving the registry silently empty; the loading
        # flag handles re-entrancy from profiles' own register() calls.
        self._loading_builtins = True
        try:
            import importlib

            importlib.import_module("repro.transports.profiles")
        finally:
            self._loading_builtins = False
        self._builtins_loaded = True


#: The process-wide registry all dispatch goes through.
registry = TransportRegistry()


def get_profile(name: str) -> TransportProfile:
    """Shorthand for ``registry.get(name)``."""
    return registry.get(name)


def transport_names(simulatable_only: bool = False) -> List[str]:
    """Shorthand for ``registry.names(...)``."""
    return registry.names(simulatable_only=simulatable_only)
