"""Call-path parity: ``call()`` and ``client_send()`` + ``client_recv()``.

The Table 2 primitives and the one-shot ``call`` share one protocol
body, so the same seeded scenario driven through either path must
dispatch the same events, measure the same latencies and fetch
attempts, and emit the same tracer records.  Each scenario also checks
that it exercised the protocol step it names.
"""

import itertools

import pytest

from repro.core import Mode, RfpClient, RfpConfig, RfpServer
from repro.hw import CLUSTER_EUROSYS17, build_cluster
from repro.paradigms import ServerReplyClient, ServerReplyServer
from repro.sim import Simulator, Tracer


def echo(process_us):
    return lambda payload, context: (payload, process_us)


def slow_then_fast(slow_calls):
    """Echo that takes 30 µs for the first ``slow_calls`` requests, then
    0.1 µs: the client switches to server-reply and back."""
    served = itertools.count()
    return lambda payload, context: (
        payload,
        30.0 if next(served) < slow_calls else 0.1,
    )


SCENARIOS = {
    "one-read": (RfpServer, RfpClient, lambda: echo(0.2), RfpConfig(), 32),
    "remainder-read": (
        RfpServer,
        RfpClient,
        lambda: echo(0.2),
        RfpConfig(fetch_size=64),
        300,
    ),
    "switch-to-reply": (
        RfpServer,
        RfpClient,
        lambda: echo(30.0),
        RfpConfig(consecutive_slow_calls=1),
        32,
    ),
    "switch-back": (
        RfpServer,
        RfpClient,
        lambda: slow_then_fast(3),
        RfpConfig(consecutive_slow_calls=1),
        32,
    ),
    "server-reply-client": (
        ServerReplyServer,
        ServerReplyClient,
        lambda: echo(0.2),
        None,
        32,
    ),
}

#: Protocol steps each scenario must show in its trace.
EXPECTED_LABELS = {
    "one-read": {"fetch_success"},
    "remainder-read": {"remainder_read", "fetch_success"},
    "switch-to-reply": {"mode_switch", "flag_published", "reply_received"},
    "switch-back": {"mode_switch", "reply_received", "fetch_success"},
    "server-reply-client": {"reply_received"},
}

CALLS = 6


def run(name, split):
    """Drive ``CALLS`` calls; ``split`` goes through the Table 2 pair."""
    server_class, client_class, handler, config, size = SCENARIOS[name]
    sim = Simulator()
    cluster = build_cluster(sim, CLUSTER_EUROSYS17)
    tracer = Tracer(sim)
    server = server_class(
        sim, cluster, cluster.server, handler(), threads=2, config=config,
        tracer=tracer,
    )
    client = client_class(
        sim, cluster.client_machines[0], server, config, tracer=tracer
    )
    payloads = [bytes([index]) * size for index in range(CALLS)]

    def body():
        responses = []
        for payload in payloads:
            if split:
                yield from client.client_send(payload)
                response = yield from client.client_recv()
            else:
                response = yield from client.call(payload)
            responses.append(response)
        return responses

    process = sim.process(body())
    sim.run()
    assert process.value == payloads
    return sim, client, tracer


def trace_stream(tracer):
    """The tracer records with channel ids renumbered by first sight
    (ids come from a process-wide counter, so they differ per run)."""
    ids = {}
    stream = []
    for event in tracer.events():
        data = dict(event.data)
        key = "channel" if event.category == "rfp.client" else "client"
        data[key] = ids.setdefault(data[key], len(ids))
        stream.append((event.at_us, event.category, event.label, data))
    return stream


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_call_and_split_primitives_are_the_same_protocol(name):
    whole_sim, whole, whole_tracer = run(name, split=False)
    split_sim, split, split_tracer = run(name, split=True)
    assert split_sim.dispatched == whole_sim.dispatched
    assert split.stats.latency_us.samples == whole.stats.latency_us.samples
    assert (
        split.stats.fetch_attempts.samples == whole.stats.fetch_attempts.samples
    )
    assert trace_stream(split_tracer) == trace_stream(whole_tracer)
    labels = {event.label for event in whole_tracer.events()}
    assert EXPECTED_LABELS[name] <= labels
    assert whole.stats.calls.value == CALLS


def test_switch_back_scenario_ends_in_remote_fetch():
    _, client, tracer = run("switch-back", split=False)
    targets = [e.data["to"] for e in tracer.events(label="mode_switch")]
    assert targets == ["SERVER_REPLY", "REMOTE_FETCH"]
    assert client.mode is Mode.REMOTE_FETCH
