"""Unit tests for the Section III-C attacker capability objects."""

import pytest

from repro.core import AttackerCapability, RMIAttackerCapability


class TestAttackerCapability:
    def test_budget(self):
        cap = AttackerCapability(poisoning_percentage=10.0)
        assert cap.budget(1000) == 100

    def test_budget_floors(self):
        cap = AttackerCapability(poisoning_percentage=10.0)
        assert cap.budget(105) == 10

    def test_twenty_percent_cap(self):
        AttackerCapability(poisoning_percentage=20.0)  # boundary ok
        with pytest.raises(ValueError):
            AttackerCapability(poisoning_percentage=20.5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            AttackerCapability(poisoning_percentage=-1.0)

    def test_frozen(self):
        cap = AttackerCapability(poisoning_percentage=5.0)
        with pytest.raises(AttributeError):
            cap.poisoning_percentage = 15.0


class TestRMIAttackerCapability:
    def test_per_model_threshold(self):
        cap = RMIAttackerCapability(poisoning_percentage=10.0, alpha=3.0)
        # t = alpha * phi * n / N = 3 * 0.1 * 1000 / 10 = 30
        assert cap.per_model_threshold(1000, 10) == 30

    def test_paper_example(self):
        """Sec. V: phi=10%, n=1e6, partitions of 1e3 -> t in {200, 300}."""
        for alpha, expected in ((2.0, 200), (3.0, 300)):
            cap = RMIAttackerCapability(poisoning_percentage=10.0,
                                        alpha=alpha)
            assert cap.per_model_threshold(1_000_000, 1000) == expected

    def test_threshold_at_least_one(self):
        cap = RMIAttackerCapability(poisoning_percentage=1.0, alpha=2.0)
        assert cap.per_model_threshold(100, 50) == 1

    def test_alpha_below_one_rejected(self):
        with pytest.raises(ValueError):
            RMIAttackerCapability(poisoning_percentage=5.0, alpha=0.5)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            RMIAttackerCapability(poisoning_percentage=5.0, epsilon=-1e-3)

    def test_inherits_percentage_validation(self):
        with pytest.raises(ValueError):
            RMIAttackerCapability(poisoning_percentage=21.0)
