"""IPv6 and UDP packet construction (the uncompressed reference forms).

6LoWPAN compression needs the *uncompressed* IPv6/UDP encoding both as
its input and to size fragmentation (datagram_size counts uncompressed
bytes, RFC 4944 §5.3). The paper's setup zeroes traffic class and flow
label so IPHC can elide them; that is the default here too.
"""

from .ipv6 import Ipv6Packet, global_address
from .udp import UdpDatagram, udp_checksum

__all__ = [
    "Ipv6Packet",
    "global_address",
    "UdpDatagram",
    "udp_checksum",
]
