"""Self-tests of the benchmark's own arithmetic.

    python3 -m pytest bench/tests
"""

import os
import sys
from array import array

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import hostclock  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402


def test_percentile_estimate_and_samples_beyond():
    samples = [float(v) for v in range(100, 0, -1)]
    assert abs(worker.harrell_davis(samples, 50) - 50.5) < 1e-6
    assert abs(worker.harrell_davis(samples, 90) - 90.5) < 0.01
    assert abs(worker.harrell_davis([7.0] * 40, 90) - 7.0) < 1e-9
    # a single sample trading places moves the estimate only a little
    nudged = samples[:50] + [samples[50] + 2.0] + samples[51:]
    assert abs(worker.harrell_davis(nudged, 50) - 50.5) < 0.2
    assert worker.beyond(100, 90) == 10
    # 99 samples leave only 9 above the nearest-rank p90
    assert worker.beyond(99, 90) == 9
    assert worker.beyond(293, 90) == 29


def test_latency_record_counts_samples():
    record = worker.latency_record([0.001] * 90 + [0.002] * 10)
    assert record["samples"] == 100
    assert record["beyond_p90"] == 10
    assert abs(record["latency_p50_ms"] - 1.0) < 1e-9
    assert 1.0 < record["latency_p90_ms"] < 2.0
    assert abs(record["ops_per_s"] - 100 / 0.11) < 1e-6


def test_self_time_subtracts_child_spans():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7]
    names, layers = ["a", "b", "c", "d"], ["cli", "quiver", "quiver", "algebra"]
    name_id = array("i", [0, 1, 2, 3])
    parent = array("i", [-1, 0, 0, 2])
    start = array("d", [0.0, 1.0, 5.0, 6.0])
    end = array("d", [10.0, 4.0, 9.0, 7.0])
    summary = spans.summarize(names, layers, name_id, parent, start, end)
    assert summary["a"] == ("cli", 1, 10.0, 3.0)
    assert summary["b"] == ("quiver", 1, 3.0, 3.0)
    assert summary["c"] == ("quiver", 1, 4.0, 3.0)
    assert summary["d"] == ("algebra", 1, 1.0, 1.0)
    # foreign work inside d, and inside c but reported while d was opening,
    # is taken from the innermost span around it
    summary = spans.summarize(names, layers, name_id, parent, start, end,
                              [(6.25, 6.5, 3), (5.25, 5.5, 3)])
    assert summary["d"] == ("algebra", 1, 1.0, 0.75)
    assert summary["c"] == ("quiver", 1, 4.0, 2.75)
    assert summary["a"] == ("cli", 1, 10.0, 3.0)


def test_host_correction_scales_by_probe_speed():
    host = hostclock.HostClock()
    ref = hostclock.PROBE_REF_S
    # probes at 1.0 and 2.0 s ran at half speed, the one at 3.0 s at full speed
    host.stamps.extend([1.0, 2.0, 3.0])
    host.durations.extend([2 * ref, 2 * ref, ref])
    # an op from 0.5 to 2.5 s holds two slow probes: their time is removed
    # and the rest halved
    assert abs(host.net(0.5, 2.5) - (2.0 - 4 * ref)) < 1e-12
    assert abs(host.corrected(0.5, 2.5) - (2.0 - 4 * ref) / 2) < 1e-12
    # an op too short to hold a probe uses the probes around it
    assert abs(host.corrected(2.5, 2.6) - 0.1 * ref / (1.5 * ref)) < 1e-12


class _Echo:
    """A workload whose ops render as their results."""

    @staticmethod
    def render(result):
        return result.strip("!")


def test_golden_check_fails_on_perturbed_output():
    outputs = ["U = 1; D = x", "exit 0\ngentle\n"]
    goldens = [worker.digest(text) for text in outputs]
    results = list(enumerate(outputs))
    assert worker.count_failures(_Echo, results, goldens) == 0
    assert worker.count_failures(_Echo, [(0, None), (1, outputs[1])], goldens) == 1
    perturbed = [(0, outputs[0] + " "), (1, outputs[1])]
    assert worker.count_failures(_Echo, perturbed, goldens) == 1
    raised = [(0, worker.FAILED), (1, outputs[1])]
    assert worker.count_failures(_Echo, raised, goldens) == 1


def test_tracer_sees_each_call_once_and_restores():
    worker.import_program()
    from stringalg import decompose, polymat
    original = polymat.modified_smith
    m = polymat.parse_poly_matrix("x, 1; 0, x")
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert decompose.modified_smith is polymat.modified_smith
        polymat.modified_smith(m)
        decompose.modified_smith(m)
    finally:
        tracer.uninstall()
    assert polymat.modified_smith is original
    assert decompose.modified_smith is original
    summary = tracer.summary()
    # two top-level calls plus one recursive deflation call each
    assert summary["polymat.modified_smith"][1] == 4
    assert summary["polymat.verify"][1] == 2
    assert tracer.counters["polymat.peak_coeff_bits"][0] >= 1
