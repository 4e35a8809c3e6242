"""The one stats convention every cache location reports.

Before this module existed the repo counted cache events three
different ways (bare ``hits``/``misses`` ints on the DNS cache, a
five-field struct on the CoAP cache, ad-hoc proxy counters); Figure 11
aggregation had to know all of them. :class:`CacheStats` is the single
vocabulary — every location (client DNS, client CoAP, forward proxy,
resolver, OSCORE ciphertext) exposes exactly these counters, so
per-location ratios fall out of any sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class CacheStats:
    """Unified cache event counters (the events of Figure 11).

    * ``hits`` — fresh entries served without any network traffic;
    * ``misses`` — lookups that found nothing usable;
    * ``stale_hits`` — lookups that found an expired entry kept for
      revalidation (the caller should offer its ETag upstream);
    * ``validations`` — stale entries revived by a 2.03 Valid (the
      EOL-TTLs win in Figure 3, step 4);
    * ``validation_failures`` — revalidation attempts whose validator
      no longer matched (the DoH-like failure mode);
    * ``evictions`` — live entries displaced by capacity pressure
      (expired entries removed to make room are not counted here).
    """

    hits: int = 0
    misses: int = 0
    stale_hits: int = 0
    validations: int = 0
    validation_failures: int = 0
    evictions: int = 0

    # -- derived ratios ---------------------------------------------------

    @property
    def lookups(self) -> int:
        """Total lookups that reached the cache."""
        return self.hits + self.misses + self.stale_hits

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def stale_ratio(self) -> float:
        return self.stale_hits / self.lookups if self.lookups else 0.0

    @property
    def validation_ratio(self) -> float:
        """Successful revalidations per stale hit."""
        return self.validations / self.stale_hits if self.stale_hits else 0.0

    # -- aggregation ------------------------------------------------------

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Accumulate *other* into self (sums caches across clients)."""
        for spec in fields(self):
            setattr(
                self, spec.name,
                getattr(self, spec.name) + getattr(other, spec.name),
            )
        return self

    def as_dict(self) -> dict:
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}
