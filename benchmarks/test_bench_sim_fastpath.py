"""Pytest wrapper around the simulator dataplane benchmark.

Runs :mod:`benchmarks.bench_sim` in quick mode.  The gates are the pinned
simulated iperf outcome (a dataplane change must not alter what is
simulated) and a conservative floor on the raw callback lane's dispatch
advantage over process-lane dispatch.  The committed ``BENCH_sim.json`` is
produced by the direct, longer run (``python benchmarks/bench_sim.py``).
"""

from __future__ import annotations

from benchmarks.bench_sim import PINNED_IPERF, run_bench, write_report


def test_sim_fastpath_speedup():
    report = run_bench(quick=True)
    write_report(report)
    results = report["results"]
    iperf = results["iperf_e2e"]
    assert (iperf["simulated_packets"], iperf["simulated_result"]) == PINNED_IPERF[
        iperf["transfer_bytes"]
    ]
    assert report["acceptance"]["pass"]
    # The raw callback lane must outpace process-lane dispatch outright.
    assert results["dispatch"]["callback_lane_speedup"] >= 1.2
    assert iperf["simulated_packets"] > 1000
