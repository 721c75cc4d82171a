"""The defense-component registry: applicability, lookup, filters."""

import pytest

from repro.ablate import (
    COMPONENT_NAMES,
    COMPONENTS,
    SCENARIOS,
    applicable_components,
    component,
)
from repro.experiments import cluster_serving


class TestRegistry:
    def test_names_are_unique_and_ordered(self):
        assert len(set(COMPONENT_NAMES)) == len(COMPONENT_NAMES)
        assert COMPONENT_NAMES == tuple(s.name for s in COMPONENTS)

    def test_expected_components_registered(self):
        assert COMPONENT_NAMES == (
            "trim", "quarantine", "deferral", "slo_weighting",
            "rebalancer", "migration_rescreen", "quorum")

    def test_every_component_names_known_scenarios(self):
        for spec in COMPONENTS:
            assert spec.scenarios
            assert set(spec.scenarios) <= set(SCENARIOS)

    def test_lookup_returns_the_registered_spec(self):
        assert component("trim") is COMPONENTS[0]

    def test_lookup_unknown_name_raises_with_known_list(self):
        with pytest.raises(ValueError,
                           match=r"unknown defense component 'bogus'"):
            component("bogus")
        with pytest.raises(ValueError, match="quarantine"):
            component("bogus")


class TestApplicability:
    def test_drip_components(self):
        names = [s.name for s in applicable_components("drip")]
        assert names == ["trim", "quarantine", "deferral"]

    def test_cluster_inproc_excludes_replication_layer(self):
        names = [s.name for s in applicable_components("cluster")]
        assert names == ["trim", "quarantine", "deferral",
                         "slo_weighting", "rebalancer",
                         "migration_rescreen"]

    def test_quorum_needs_process_transport_and_replicas(self):
        quorum = component("quorum")
        assert not quorum.applicable("cluster")
        assert not quorum.applicable("cluster", transport="process",
                                     replicas=2)
        assert not quorum.applicable("cluster", transport="inproc",
                                     replicas=3)
        assert quorum.applicable("cluster", transport="process",
                                 replicas=3)
        assert "quorum" in [
            s.name for s in applicable_components(
                "cluster", transport="process", replicas=3)]

    def test_requires_tag_reflects_replication_floor(self):
        assert component("trim").requires() == "-"
        assert component("quorum").requires() \
            == "--transport process --replicas>=3"

    def test_unknown_scenario_raises(self):
        with pytest.raises(ValueError,
                           match=r"unknown scenario 'edge'"):
            applicable_components("edge")

    def test_filter_keeps_registry_order(self):
        names = [s.name for s in applicable_components(
            "cluster", components=("rebalancer", "trim"))]
        assert names == ["trim", "rebalancer"]

    def test_filter_with_unknown_name_raises(self):
        with pytest.raises(ValueError,
                           match=r"unknown defense component 'tirm'"):
            applicable_components("drip", components=("tirm",))

    def test_filter_of_inapplicable_component_yields_nothing(self):
        # quorum exists but is not live in an inproc cluster run;
        # filtering to it must not resurrect it.
        assert applicable_components(
            "cluster", components=("quorum",)) == ()


class TestClusterTargetLayers:
    """``repro.experiments`` cannot import the registry (the registry's
    package imports it), so these pins keep the ``cluster`` target's
    two arms in step with the components the ablation grid toggles."""

    def test_managed_arm_arms_every_cluster_component(self):
        assert cluster_serving.MANAGED_LAYERS == frozenset(
            spec.name for spec in applicable_components(
                "cluster", transport="process", replicas=3))

    def test_static_arm_keeps_only_the_router_layers(self):
        assert cluster_serving.STATIC_LAYERS == {
            "quarantine", "migration_rescreen", "quorum"}
