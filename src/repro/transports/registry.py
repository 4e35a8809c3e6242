"""Transport plugin registry.

Every DNS transport the reproduction compares — UDP, DTLS, CoAP,
CoAPS, OSCORE, and the modeled QUIC — is described by one
:class:`TransportProfile`: its name, default port, client/server
factories, security provisioning (DTLS pre-establishment, OSCORE
context wiring), and packet-dissection hooks. The experiment harness,
the scenario engine, and the CLI all dispatch through the registry, so
adding a transport variant is a registration, not a refactor:

    from repro.transports.registry import TransportProfile, registry

    registry.register(TransportProfile(name="mytransport", ...))

The built-in profiles live in :mod:`repro.transports.profiles` and are
registered lazily on first lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class UnknownTransportError(ValueError):
    """Lookup of a transport name that no profile claims."""


class TransportCapabilityError(ValueError):
    """A profile was asked for something it does not support (e.g.
    simulating the analytically-modeled QUIC transport)."""


@dataclass
class ServerHandle:
    """What a server factory returns: where the server listens plus any
    secure-socket adapter clients must pre-establish against."""

    port: int
    endpoint: Tuple[str, int]
    server: object = None
    adapter: object = None


@dataclass
class TransportEnv:
    """Everything a profile's factories need to stand up one run.

    ``scenario`` is the :class:`repro.scenarios.Scenario` being run;
    the factories read its ``method``, ``scheme``, ``block_size`` and
    cache placement.
    """

    sim: object
    topology: object
    resolver: object
    scenario: object
    #: (client context, server context) pairs filled by provisioners.
    oscore_pairs: List[tuple] = field(default_factory=list)
    server: Optional[ServerHandle] = None
    #: Where clients send requests (the server, or a forward proxy).
    target: Optional[Tuple[str, int]] = None


@dataclass(frozen=True)
class TransportProfile:
    """One DNS transport, declared rather than special-cased.

    Factories receive a :class:`TransportEnv`; dissectors receive the
    profile itself plus the message parameters, so closely related
    transports (CoAP/CoAPS) can share one parameterized implementation.
    """

    name: str
    display_name: str
    default_port: int
    #: Encrypts application traffic (DTLS record layer or OSCORE).
    secure: bool = False
    #: Runs DNS inside CoAP (and can therefore sit behind a CoAP proxy).
    coap_based: bool = False
    #: Can be driven end-to-end in the simulator (QUIC is model-only).
    simulatable: bool = True
    #: Appears in the Figure 6 dissection grid.
    in_figure6: bool = True
    #: Prepends DTLS handshake flights in the Figure 6 grid.
    has_handshake: bool = False
    #: Adds the replay-window Echo variant in the Figure 6 grid.
    echo_variant: bool = False
    #: ``provisioner(env)`` runs once per run before any factory (e.g.
    #: derive OSCORE contexts).
    provisioner: Optional[Callable[[TransportEnv], None]] = None
    #: ``server_factory(env) -> ServerHandle``
    server_factory: Optional[Callable[[TransportEnv], ServerHandle]] = None
    #: ``client_factory(env, node, index) -> client`` where the client
    #: exposes ``resolve(name, rtype, on_result)``.
    client_factory: Optional[Callable[..., object]] = None
    #: ``dissector(profile, method, name, with_echo) -> [PacketDissection]``
    dissector: Optional[Callable[..., list]] = None

    def provision(self, env: TransportEnv) -> None:
        if self.provisioner is not None:
            self.provisioner(env)

    def build_server(self, env: TransportEnv) -> ServerHandle:
        if self.server_factory is None:
            raise TransportCapabilityError(
                f"transport {self.name!r} cannot be simulated"
            )
        return self.server_factory(env)

    def build_client(self, env: TransportEnv, node, index: int):
        if self.client_factory is None:
            raise TransportCapabilityError(
                f"transport {self.name!r} cannot be simulated"
            )
        return self.client_factory(env, node, index)

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

    def __len__(self) -> int:
        self._ensure_builtins()
        return len(self._profiles)

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
