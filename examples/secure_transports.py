#!/usr/bin/env python3
"""Compare every DNS transport of the paper on the same network.

Runs DNS over UDP, DNS over DTLS, plain DoC, DoC over DTLS (CoAPS), and
DoC with OSCORE over the Figure 2 topology and reports resolution
times, link-layer footprints, and the Figure 6 packet dissection.

Run:  python examples/secure_transports.py
"""

from repro.api import run
from repro.experiments import dissect_all


def main() -> None:
    print("=== Packet dissection (24-char name, Figure 6) ===")
    print(f"{'transport':11s} {'message':16s} {'DNS':>4s} {'sec':>4s} "
          f"{'CoAP':>5s} {'frames':>7s} fragmented")
    for transport, dissections in dissect_all().items():
        for d in dissections:
            if "Hello" in d.message or "Cipher" in d.message \
                    or "Exchange" in d.message or "Finish" in d.message:
                continue
            print(
                f"{transport:11s} {d.message:16s} {d.dns_bytes:4d} "
                f"{d.security_bytes:4d} {d.coap_bytes:5d} "
                f"{str(list(d.frame_sizes)):>7s}  {d.fragmented}"
            )

    print("\n=== Resolution times, 50 queries at lambda=5/s (Figure 7) ===")
    print(f"{'transport':8s} {'success':>8s} {'median':>9s} {'p95':>9s} {'max':>9s}")
    for transport in ("udp", "dtls", "coap", "coaps", "oscore"):
        metrics = run(
            f"transport={transport},queries=50,loss=0.15,retries=1,seed=1"
        ).metrics
        print(
            f"{transport:8s} {metrics['queries.success_rate']:8.2f} "
            f"{metrics['latency.p50_ms']:8.1f}m "
            f"{metrics['latency.p95_ms']:8.1f}m "
            f"{metrics['latency.max_ms'] / 1000:8.2f}s"
        )


if __name__ == "__main__":
    main()
