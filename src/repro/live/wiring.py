"""Shared live-runtime wiring: names, zones, and security material.

The ``serve`` and ``loadtest`` halves of the live runtime usually run
in *separate processes*, so everything both sides must agree on is
derived deterministically here from CLI-visible inputs:

* the name universe — either the synthetic 24-character template the
  simulated runner uses, or a :mod:`repro.datasets` profile sampled
  with a fixed seed (both sides regenerate the identical list);
* the authoritative zone serving those names;
* OSCORE security contexts — both sides derive the same pair from a
  shared master secret;
* the DTLS PSK credentials.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.transports.registry import registry

#: Default UDP port of the live runtime. The registry's canonical
#: ports (53/5683/853) need elevated privileges to bind; the live
#: default stays in userland and is shared by ``serve`` and
#: ``loadtest`` so the two halves meet without flags.
DEFAULT_LIVE_PORT = 5853

#: Default shared secret for OSCORE context derivation (override with
#: ``--secret`` for anything beyond loopback experiments).
DEFAULT_SECRET = b"repro-live-master-secret"

#: Default DTLS PSK credentials (matching the simulated adapters).
DEFAULT_PSK = b"secretPSK"
DEFAULT_PSK_IDENTITY = b"Client_identity"


class LiveWiringError(ValueError):
    """An inconsistent live-runtime configuration."""


def check_live_transport(name: str) -> str:
    """Validate *name* against the registry and the live capability:
    the runnable profiles are the ones the simulator drives too."""
    profile = registry.get(name)  # raises UnknownTransportError
    if not profile.simulatable:
        raise LiveWiringError(
            f"transport {name!r} cannot be served live (supported: "
            f"{', '.join(registry.names(simulatable_only=True))})"
        )
    return name


def build_names(
    count: int, dataset: Optional[str] = None, name_seed: int = 7
) -> List[str]:
    """The deterministic name universe shared by server and loadgen.

    Without *dataset*, the simulated runner's 24-character template
    (``name0000.example-iot.org``); with one, names sampled from the
    corresponding Section 3 dataset profile under *name_seed* — the
    same list on every call, so the serving and loading processes
    agree without talking to each other.
    """
    if count < 1:
        raise LiveWiringError("count must be >= 1")
    if dataset is None:
        from repro.scenarios.runner import NAME_TEMPLATE

        return [NAME_TEMPLATE.format(index=index) for index in range(count)]
    from repro.datasets import DATASET_PROFILES, generate_names

    try:
        profile = DATASET_PROFILES[dataset]
    except KeyError:
        raise LiveWiringError(
            f"unknown dataset {dataset!r} "
            f"(known: {', '.join(DATASET_PROFILES)})"
        ) from None
    return generate_names(profile, random.Random(name_seed), count)


def build_zone(
    names: Sequence[str],
    ttl: Tuple[int, int] = (300, 300),
    rng: Optional[random.Random] = None,
):
    """An authoritative zone answering A and AAAA for every name.

    Delegates to the scenario runner's zone builder so a live server
    answers exactly what the simulated resolver would for the same
    name index — rehearse a workload in simulation, replay it live,
    compare the answers byte-for-byte.
    """
    from repro.dns.enums import RecordType
    from repro.scenarios.runner import build_workload_zone
    from repro.scenarios.scenario import WorkloadSpec

    spec = WorkloadSpec(
        num_names=len(names),
        ttl=ttl,
        rtype_mix=(
            (int(RecordType.AAAA), 0.5),
            (int(RecordType.A), 0.5),
        ),
    )
    return build_workload_zone(spec, rng or random.Random(0), names=names)


def derive_oscore_pair(secret: bytes = DEFAULT_SECRET):
    """The (client, server) OSCORE contexts both processes derive.

    Replay windows are pre-initialised (no Echo round), matching the
    paper's measurement setup; pass the server context to
    :class:`~repro.doc.DocServer` and the client one to
    :class:`~repro.doc.DocClient`.
    """
    from repro.oscore import SecurityContext

    return SecurityContext.pair(secret, b"repro-live-salt")
