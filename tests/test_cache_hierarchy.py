"""End-to-end cache hierarchy and cache-placement sweep tests.

The Section 6.1 caching study in miniature: queries traverse
client DNS cache → client CoAP cache → forward-proxy cache → resolver,
and every location reports the unified per-location counters the
Figure 11 event analysis needs.
"""

import pytest

from repro.api import sweep
from repro.doc import CachingScheme
from repro.scenarios import (
    CachingSpec,
    Scenario,
    ScenarioError,
    ScenarioRunner,
    TopologySpec,
    WorkloadSpec,
)

#: Canonical label the "all" placement alias normalises to.
ALL = "client-dns+client-coap+proxy"


def _hierarchy_scenario(scheme, **overrides):
    """Two clients behind a caching proxy, short churning TTLs."""
    fields = dict(
        name="hierarchy",
        transport="coap",
        topology=TopologySpec(name="figure2", hops=2, clients=2, loss=0.0),
        workload=WorkloadSpec(
            num_queries=40, num_names=3, query_rate=4.0, ttl=(2, 8)
        ),
        scheme=scheme,
        use_proxy=True,
        caching=CachingSpec(client_dns=True, client_coap=True, proxy=True),
        seed=11,
    )
    fields.update(overrides)
    return Scenario(**fields)


class TestCacheHierarchy:
    @pytest.fixture(scope="class")
    def results(self):
        runner = ScenarioRunner()
        return {
            scheme: runner.run(_hierarchy_scenario(scheme))
            for scheme in (CachingScheme.EOL_TTLS, CachingScheme.DOH_LIKE)
        }

    def test_all_locations_report(self, results):
        for result in results.values():
            assert set(result.cache_stats) == {
                "client-dns", "client-coap", "proxy", "resolver"
            }

    def test_lossless_run_resolves_everything(self, results):
        for result in results.values():
            assert result.success_rate == 1.0

    def test_client_dns_cache_absorbs_repeats(self, results):
        for result in results.values():
            dns = result.cache_stats["client-dns"]
            # 40 queries over 3 names: the vast majority are DNS hits.
            assert dns.hits > 20
            assert dns.hits + dns.misses == 40

    def test_proxy_shares_entries_across_clients(self, results):
        for result in results.values():
            assert result.cache_stats["proxy"].hits > 0

    def test_hierarchy_shields_the_resolver(self, results):
        for result in results.values():
            resolver = result.cache_stats["resolver"]
            # Only a handful of lookups survive three cache levels.
            assert resolver.lookups < 10

    def test_eol_ttls_revalidation_succeeds(self, results):
        stats = results[CachingScheme.EOL_TTLS].cache_stats
        # Stable representations: stale entries revive via 2.03 Valid
        # at both CoAP cache locations (Figure 3, step 4, EOL branch).
        assert stats["client-coap"].validations > 0
        assert stats["proxy"].validations > 0
        assert stats["client-coap"].validation_failures == 0
        assert stats["proxy"].validation_failures == 0

    def test_doh_like_revalidation_fails(self, results):
        stats = results[CachingScheme.DOH_LIKE].cache_stats
        # TTL churn changes the payload hash, so the origin never
        # confirms an ETag: stale hits happen, validations do not.
        assert stats["client-coap"].stale_hits > 0
        assert stats["client-coap"].validations == 0
        assert stats["proxy"].validations == 0

    def test_cache_ratios_shape(self, results):
        stats = results[CachingScheme.EOL_TTLS].cache_stats
        assert set(stats) == {
            "client-dns", "client-coap", "proxy", "resolver"
        }
        for location in stats.values():
            assert 0.0 <= location.hit_ratio <= 1.0


class TestPlacementOff:
    def test_placement_none_disables_every_cache(self):
        scenario = _hierarchy_scenario(
            CachingScheme.EOL_TTLS,
            caching=CachingSpec.from_placement("none"),
        )
        result = ScenarioRunner().run(scenario)
        # Only the resolver cache remains (it is part of the resolver).
        assert set(result.cache_stats) == {"resolver"}
        assert result.proxy_cache_hits == 0

    def test_opaque_forwarder_still_forwards(self):
        scenario = _hierarchy_scenario(
            CachingScheme.EOL_TTLS,
            caching=CachingSpec.from_placement("none"),
        )
        result = ScenarioRunner().run(scenario)
        assert result.success_rate == 1.0


class TestCachingSpec:
    def test_placement_round_trip(self):
        for placement in ("none", "client-dns", "client-coap+proxy",
                          "client-dns+client-coap+proxy"):
            spec = CachingSpec.from_placement(placement)
            assert spec.placement_label() == placement

    def test_all_alias(self):
        spec = CachingSpec.from_placement("all")
        assert spec.placement_label() == "client-dns+client-coap+proxy"

    def test_unknown_token_rejected(self):
        with pytest.raises(ScenarioError):
            CachingSpec.from_placement("client-quic")

    def test_capacity_validation(self):
        with pytest.raises(ScenarioError):
            CachingSpec(proxy_capacity=0)

    def test_scheme_defers_to_scenario(self):
        scenario = Scenario(
            scheme=CachingScheme.DOH_LIKE,
            caching=CachingSpec(client_coap=True),
        )
        assert scenario.caching_spec.scheme is CachingScheme.DOH_LIKE

    def test_explicit_spec_scheme_wins(self):
        scenario = Scenario(
            scheme=CachingScheme.DOH_LIKE,
            caching=CachingSpec(scheme=CachingScheme.EOL_TTLS),
        )
        assert scenario.caching_spec.scheme is CachingScheme.EOL_TTLS

    def test_capacities_reach_the_caches(self):
        scenario = _hierarchy_scenario(
            CachingScheme.EOL_TTLS,
            caching=CachingSpec(
                client_dns=True, client_coap=True, proxy=True,
                client_dns_capacity=2, client_coap_capacity=2,
                proxy_capacity=2,
            ),
            workload=WorkloadSpec(
                num_queries=30, num_names=6, query_rate=4.0, ttl=(300, 300)
            ),
        )
        result = ScenarioRunner().run(scenario)
        # Six names through capacity-2 caches must displace entries.
        stats = result.cache_stats
        assert (
            stats["client-dns"].evictions
            + stats["client-coap"].evictions
            + stats["proxy"].evictions
        ) > 0


class TestCachePlacementSweep:
    @pytest.fixture(scope="class")
    def reports(self):
        base = _hierarchy_scenario(CachingScheme.EOL_TTLS, use_proxy=False,
                                   caching=None)
        return sweep(
            base,
            transports=("coap",),
            topologies=("figure2",),
            losses=(0.0,),
            cache_placements=("none", "client-coap", "all"),
            schemes=("doh-like", "eol-ttls"),
        )

    def test_full_grid(self, reports):
        assert len(reports) == 6

    def test_cell_addressing_includes_cache_axes(self, reports):
        report = reports[f"coap/figure2/0/{ALL}/eol-ttls"]
        assert report.spec["caching"]["placement"] == ALL
        assert report.spec["scheme"] == "eol-ttls"
        assert report.raw.scenario.use_proxy   # placement turned the proxy on

    def test_metrics_carry_per_location_ratios(self, reports):
        metrics = reports[f"coap/figure2/0/{ALL}/eol-ttls"].metrics
        for key in ("cache.client_dns.hit_ratio",
                    "cache.client_coap.validations",
                    "sim.cache.proxy.hits", "sim.cache.resolver.hits"):
            assert key in metrics
        none_metrics = reports["coap/figure2/0/none/eol-ttls"].metrics
        assert "cache.client_dns.hit_ratio" not in none_metrics

    def test_caching_reduces_bottleneck_traffic(self, reports):
        cached = reports[f"coap/figure2/0/{ALL}/eol-ttls"].raw
        uncached = reports["coap/figure2/0/none/eol-ttls"].raw
        assert cached.link.frames_1hop < uncached.link.frames_1hop

    def test_scheme_axis_changes_validation_behaviour(self, reports):
        eol = reports[f"coap/figure2/0/{ALL}/eol-ttls"].raw
        doh = reports[f"coap/figure2/0/{ALL}/doh-like"].raw
        assert (
            eol.cache_stats["client-coap"].validations
            > doh.cache_stats["client-coap"].validations
        )

    def test_scheme_axis_overrides_explicit_spec_scheme(self):
        """A base whose CachingSpec pins a scheme must not shadow the
        swept scheme axis — each cell runs the scheme it is labeled
        with."""
        base = _hierarchy_scenario(
            CachingScheme.EOL_TTLS,
            caching=CachingSpec(
                client_coap=True, proxy=True, scheme=CachingScheme.EOL_TTLS
            ),
            use_proxy=False,
        )
        reports = sweep(
            base,
            transports=("coap",),
            topologies=("one-hop",),
            losses=(0.0,),
            cache_placements=("client-coap+proxy",),
            schemes=("doh-like", "eol-ttls"),
        )
        assert list(reports) == [
            "coap/one-hop/0/client-coap+proxy/doh-like",
            "coap/one-hop/0/client-coap+proxy/eol-ttls",
        ]
        for key, report in reports.items():
            scheme = report.raw.scenario.caching_spec.scheme.value
            assert scheme == report.spec["caching"]["scheme"]
            assert key.endswith(f"/{scheme}")

    def test_spec_parser_scheme_overrides_explicit_spec_scheme(self):
        from repro.scenarios import scenario_from_spec

        base = Scenario(caching=CachingSpec(scheme=CachingScheme.EOL_TTLS))
        scenario = scenario_from_spec("scheme=doh-like", base=base)
        assert scenario.caching_spec.scheme is CachingScheme.DOH_LIKE

    @staticmethod
    def _refused_before_any_cell_runs(monkeypatch, transport, placement):
        import repro.api.runner as api_runner

        ran = []
        monkeypatch.setattr(api_runner, "run", ran.append)
        with pytest.raises(ScenarioError):
            sweep(
                transports=("coap", transport),
                topologies=("figure2",),
                losses=(0.0,),
                cache_placements=("none", placement),
            )
        assert ran == []

    def test_proxy_placement_requires_coap_transport(self, monkeypatch):
        self._refused_before_any_cell_runs(monkeypatch, "udp", "proxy")

    def test_proxy_placement_refuses_coaps(self, monkeypatch):
        self._refused_before_any_cell_runs(
            monkeypatch, "coaps", "client-coap+proxy"
        )

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ScenarioError, match="unknown caching scheme"):
            sweep(
                transports=("coap",),
                topologies=("figure2",),
                losses=(0.0,),
                schemes=("quic-like",),
            )

    def test_legacy_sweep_keys_unchanged(self):
        base = Scenario(workload=WorkloadSpec(num_queries=4, num_names=2))
        reports = sweep(
            base,
            transports=("coap",),
            topologies=("one-hop",),
            losses=(0.0,),
        )
        assert list(reports) == ["coap/one-hop/0"]
        assert reports["coap/one-hop/0"].spec["name"] == "coap/one-hop/loss=0"


class TestSpecParser:
    @pytest.mark.parametrize("spec", [
        "figure2,transport=coaps,cache=all",
        "figure2,transport=coaps,proxy=true",
    ])
    def test_coaps_through_the_proxy_is_refused(self, spec):
        # The client's DTLS session runs to the server, so the
        # plain-CoAP proxy could only drop its records: every query
        # used to time out.
        from repro.api import RunSpec

        with pytest.raises(ScenarioError, match="use oscore through a proxy"):
            RunSpec.from_spec(spec)

    def test_coaps_with_client_side_caches_still_runs(self):
        from repro.api import RunSpec

        spec = RunSpec.from_spec(
            "figure2,transport=coaps,cache=client-dns+client-coap"
        )
        assert not spec.scenario.use_proxy

    def test_cache_key_places_and_enables_proxy(self):
        from repro.scenarios import scenario_from_spec

        scenario = scenario_from_spec("cache=client-coap+proxy")
        assert scenario.use_proxy
        spec = scenario.caching_spec
        assert spec.client_coap and spec.proxy and not spec.client_dns

    def test_cache_none_keeps_existing_proxy(self):
        from repro.scenarios import scenario_from_spec

        base = Scenario(use_proxy=True)
        scenario = scenario_from_spec("cache=none", base=base)
        assert scenario.use_proxy
        assert not scenario.caching_spec.proxy

    def test_scheme_key(self):
        from repro.scenarios import scenario_from_spec

        scenario = scenario_from_spec("scheme=doh-like")
        assert scenario.scheme is CachingScheme.DOH_LIKE
        assert scenario.caching_spec.scheme is CachingScheme.DOH_LIKE

    def test_bad_scheme_rejected(self):
        from repro.scenarios import scenario_from_spec

        with pytest.raises(ScenarioError):
            scenario_from_spec("scheme=quic-like")


class TestCliCacheFlags:
    def test_single_run_with_cache_flags(self, capsys):
        from repro.cli import main

        code = main([
            "run",
            "one-hop,queries=6,names=2,loss=0,"
            "cache=client-dns,scheme=doh-like",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "cache client_dns" in out

    def test_sweep_with_cache_axes(self, capsys):
        from repro.cli import main

        code = main([
            "sweep", "queries=6", "--transports", "coap",
            "--topologies", "one-hop", "--losses", "0",
            "--cache-placements", "none,client-coap",
            "--schemes", "eol-ttls",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "client-coap" in out
        assert "scheme" in out

    def test_comma_list_requires_sweep(self, capsys):
        from repro.cli import main

        # A list of placements is a sweep axis; in a single run's spec
        # the second item reads as a stray token.
        code = main(["run", "cache=none,all"])
        assert code == 2
        assert "expected key=value" in capsys.readouterr().err

    def test_bad_placement_is_cli_error(self, capsys):
        from repro.cli import main

        code = main(["run", "cache=client-quic"])
        assert code == 2
