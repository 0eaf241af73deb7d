"""Latency decomposition — where each microsecond of Fig. 13 lives."""

from conftest import column

from repro.bench.extensions import run_breakdown


def test_latency_breakdown(regenerate):
    result = regenerate(run_breakdown)
    times = column(result, "process_time_us")
    send = column(result, "send_us")
    server = column(result, "server_us")
    fetch = column(result, "fetch_us")
    total = column(result, "total_us")
    # Phases tile the total.
    for s, v, f, t in zip(send, server, fetch, total):
        assert abs((s + v + f) - t) / t < 0.02
        assert s > 0 and v > 0 and f > 0
    # As the server gets slower, the server phase absorbs the latency...
    assert server == sorted(server)
    assert server[-1] > 5 * server[0]
    # ...and the NIC phases relax below their saturated values.
    assert send[-1] <= send[0] + 0.5
