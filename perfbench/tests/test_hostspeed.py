"""Calibration: in-request samples are taken and timed, cold references run."""
import time

from hostspeed import HostSpeed, calibrate, calibrate_cold


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_samples_during_a_request_are_timed():
    host = HostSpeed(0.05)
    with host:
        _busy(0.4)
    assert len(host.samples) >= 3
    assert all(s > 0 for s in host.samples)
    assert 0 < host.spent_s < 0.4


def test_no_samples_when_period_is_zero():
    with HostSpeed(0.0) as host:
        _busy(0.1)
    assert host.samples == [] and host.spent_s == 0.0


def test_cold_reference_costs_a_fresh_interpreter():
    assert calibrate_cold() > 10 * calibrate() > 0
