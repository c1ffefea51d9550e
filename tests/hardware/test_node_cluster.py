"""Tests for the node and cluster specs."""

import pytest

from repro.hardware import MI60, TESTBED_CLUSTER, TESTBED_NODE


class TestNode:
    def test_testbed_shape(self):
        """Paper Sec. 5: 4 MI60 per node."""
        assert TESTBED_NODE.gpus_per_node == 4
        assert TESTBED_NODE.gpu is MI60


class TestCluster:
    def test_testbed_scale(self):
        assert TESTBED_CLUSTER.num_nodes == 4000
        assert TESTBED_CLUSTER.num_gpus == 16000


class TestLinks:
    def test_network_speed_is_200gbps(self):
        """Paper: HDR InfiniBand at 200 Gbps."""
        assert TESTBED_CLUSTER.network_bandwidth_bytes_per_s == pytest.approx(25e9)
