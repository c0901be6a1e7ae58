"""Host-speed adjustment: probes during a timed call, their time taken
out of it, and the per-request probe windows of ``service-open``."""

import time

import pytest

from cobench import hostspeed
from cobench.service import (PROBE_MIN, PROBE_WINDOW_S, REF_PROBE_RTT_S,
                             speed_factors)


def busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_timed_probes_during_the_call_and_takes_them_out():
    t0 = time.perf_counter()
    with hostspeed.Timed() as timed:
        busy(0.3)
    outer = time.perf_counter() - t0
    # One before, one after, and about one per SAMPLE_EVERY_S during.
    during = len(timed.probes) - 2
    assert during >= int(0.3 / hostspeed.SAMPLE_EVERY_S) - 3
    assert timed.inside > 0.0
    # The busy loop watches the wall clock, so the probes ate into it.
    assert timed.seconds == pytest.approx(0.3 - timed.inside, abs=0.01)
    assert timed.seconds < outer
    assert timed.factor == pytest.approx(
        hostspeed.REF_UNIT_S / hostspeed.trimmed_mean(timed.probes))


def test_trimmed_mean_drops_a_preempted_probe():
    probes = [1.0] * 18 + [0.9, 50.0]
    assert hostspeed.trimmed_mean(probes) == pytest.approx(1.0)
    assert hostspeed.trimmed_mean([2.0, 4.0]) == 3.0


def test_timed_restores_the_alarm_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Timed():
        pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_speed_factors_use_the_probes_near_each_request():
    # Slow round trips (2 ms) in the first second, fast ones (1 ms) from
    # the third on.
    probes = [(0.01 * i, 0.002 if i < 100 else 0.001) for i in range(100)]
    probes += [(2.0 + 0.01 * i, 0.001) for i in range(200)]
    results = [{"due": 0.5}, {"due": 3.0}]
    slow, fast = speed_factors(results, probes)
    assert slow == pytest.approx(REF_PROBE_RTT_S / 0.002)
    assert fast == pytest.approx(REF_PROBE_RTT_S / 0.001)


def test_speed_factors_fall_back_to_the_whole_run():
    probes = [(10.0 + i, 0.002) for i in range(PROBE_MIN)]
    far = [{"due": 10.0 + PROBE_MIN + 5 * PROBE_WINDOW_S}]
    assert speed_factors(far, probes) == [
        pytest.approx(REF_PROBE_RTT_S / 0.002)]
    assert speed_factors(far, []) == [1.0]
