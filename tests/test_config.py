"""Tests for configuration validation and helpers."""

import pytest

from repro.config import (ClusterConfig, HDDConfig, IBridgeConfig,
                          NetworkConfig, ReturnPolicy, SchedulerConfig,
                          ServerConfig, SSDConfig)
from repro.errors import ConfigError
from repro.units import GiB, KiB


def test_default_config_is_paper_testbed():
    cfg = ClusterConfig()
    cfg.validate()
    assert cfg.num_servers == 8
    assert cfg.stripe_unit == 64 * KiB
    assert cfg.hdd_scheduler.kind == "cfq"
    assert cfg.ssd_scheduler.kind == "noop"
    assert not cfg.ibridge.enabled
    assert cfg.ibridge.ssd_partition == 10 * GiB
    assert cfg.ibridge.random_threshold == 20 * KiB


def test_with_ibridge_returns_new_config():
    base = ClusterConfig()
    ib = base.with_ibridge(random_threshold=10 * KiB)
    assert not base.ibridge.enabled
    assert ib.ibridge.enabled
    assert ib.ibridge.random_threshold == 10 * KiB
    assert ib.without_ibridge().ibridge.enabled is False


def test_replace_validates():
    with pytest.raises(ConfigError):
        ClusterConfig().replace(num_servers=0)


def test_scheduler_validation():
    with pytest.raises(ConfigError):
        SchedulerConfig(kind="bogus").validate()
    with pytest.raises(ConfigError):
        SchedulerConfig(quantum=0).validate()
    with pytest.raises(ConfigError):
        SchedulerConfig(idle_window=-1).validate()
    with pytest.raises(ConfigError):
        SchedulerConfig(merge_window=-0.1).validate()


def test_network_validation():
    with pytest.raises(ConfigError):
        NetworkConfig(bandwidth=0).validate()
    with pytest.raises(ConfigError):
        NetworkConfig(latency=-1).validate()


def test_server_validation():
    with pytest.raises(ConfigError):
        ServerConfig(io_depth=0).validate()


def test_ibridge_validation():
    with pytest.raises(ConfigError):
        IBridgeConfig(random_threshold=0).validate()
    with pytest.raises(ConfigError):
        IBridgeConfig(report_period=0).validate()
    with pytest.raises(ConfigError):
        IBridgeConfig(dynamic_partition=False,
                      static_split=(0.7, 0.7)).validate()
    IBridgeConfig(dynamic_partition=False, static_split=(0.3, 0.7)).validate()


def test_ssd_validation():
    with pytest.raises(ConfigError):
        SSDConfig(capacity=0).validate()
    with pytest.raises(ConfigError):
        SSDConfig(read_setup=-1).validate()


def test_hdd_validation():
    with pytest.raises(ConfigError):
        HDDConfig(skip_window=-1).validate()
    with pytest.raises(ConfigError):
        HDDConfig(write_sweep_window=-1).validate()


def test_return_policy_enum():
    assert ReturnPolicy("paper") is ReturnPolicy.PAPER
    assert ReturnPolicy("efficiency") is ReturnPolicy.EFFICIENCY


def test_primary_store_validation():
    with pytest.raises(ConfigError):
        ClusterConfig(primary_store="tape").validate()
