"""Tests for the Section VIII implication experiments and the CLI."""

import numpy as np
import pytest

from repro.cli import main
from repro.experiments import (
    REGISTRY,
    admission_comparison,
    mgk_comparison,
    priority_starvation,
    tcp_dynamics,
)


class TestPriorityStarvation:
    @pytest.fixture(scope="class")
    def result(self):
        return priority_starvation(seed=0)

    def test_lrd_starves_longer(self, result):
        assert result.starvation_ratio > 2.0

    def test_lrd_worse_tail_delay(self, result):
        assert result.lrd.p99_low_delay > result.poisson.p99_low_delay

    def test_render(self, result):
        assert "starvation" in result.render()


class TestAdmissionComparison:
    @pytest.fixture(scope="class")
    def result(self):
        return admission_comparison(seed=0)

    def test_lrd_misled_more(self, result):
        assert result.lrd.misled_rate > 2.0 * max(result.poisson.misled_rate,
                                                  0.005)

    def test_both_policies_admit(self, result):
        assert result.lrd.admission_rate > 0.5
        assert result.poisson.admission_rate > 0.5

    def test_render(self, result):
        assert "admission" in result.render()


class TestTcpDynamics:
    @pytest.fixture(scope="class")
    def result(self):
        return tcp_dynamics(seed=0)

    def test_rates_differ_across_connections(self, result):
        assert result.rate_cv > 0.2

    def test_rate_varies_within_connection(self, result):
        assert result.within_rate_swing > 1.5

    def test_interarrivals_not_exponential(self, result):
        assert not result.interarrivals_exponential

    def test_congestion_occurred(self, result):
        assert result.total_drops > 0

    def test_render(self, result):
        assert "M/G/inf" in result.render()


class TestMGkComparison:
    @pytest.fixture(scope="class")
    def result(self):
        return mgk_comparison(seed=0)

    def test_correlations_survive_finite_k(self, result):
        assert result.correlations_survive

    def test_includes_infinite_reference(self, result):
        assert any(r["k"] == "inf" for r in result.rows())

    def test_render(self, result):
        assert "M/G/k" in result.render()


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig09" in out and "appendix_c" in out

    def test_run_experiment(self, capsys):
        assert main(["run", "fig14", "--seed", "1", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Pareto" in out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "nope", "--seed", "0", "--no-cache"]) == 2

    def test_registry_complete(self):
        """Every table/figure/appendix of the paper has a registry entry."""
        for name in ("table1", "table2", "appendix_c", "appendix_d",
                     "appendix_e", "delay", "priority", "admission",
                     "tcp_dynamics", "mgk"):
            assert name in REGISTRY
        for i in range(1, 16):
            assert f"fig{i:02d}" in REGISTRY

    def test_all_registry_entries_accept_seed(self):
        """`python -m repro run all` calls every entry with seed=...; the
        signatures must allow it."""
        import inspect

        for name, fn in REGISTRY.items():
            params = inspect.signature(fn).parameters
            assert "seed" in params, name


class TestUdpCompetition:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import udp_competition

        return udp_competition(seed=0)

    def test_tcp_yields(self, result):
        """'only the FTP traffic will adjust to fit the available
        bandwidth' — TCP gives up roughly the UDP stream's share."""
        assert 0.3 < result.tcp_yield_fraction < 0.7

    def test_udp_unimpeded(self, result):
        """'The UDP traffic will continue unimpeded.'"""
        assert result.udp_delivery_ratio > 0.9

    def test_tcp_suffers_the_drops(self, result):
        assert result.tcp_drops_shared > 0

    def test_render(self, result):
        assert "UDP" in result.render()
