"""Unit tests for the RPC stub layer."""

import pytest

from repro.core import RfpClient, RfpServer, RpcClient, RpcServer
from repro.core.rpc import RPC_APP_ERROR, RPC_MALFORMED, RPC_NO_FUNCTION, RPC_OK
from repro.errors import ProtocolError
from repro.hw import CLUSTER_EUROSYS17, build_cluster
from repro.sim import Simulator


def make_rpc_rig(registrations):
    sim = Simulator()
    cluster = build_cluster(sim, CLUSTER_EUROSYS17)
    dispatcher = RpcServer()
    for function_id, handler in registrations:
        dispatcher.register(function_id, handler)
    server = RfpServer(sim, cluster, cluster.server, dispatcher.handle, threads=2)
    transport = RfpClient(sim, cluster.client_machines[0], server)
    return sim, RpcClient(transport), dispatcher


def ok_echo(args, ctx):
    return RPC_OK, b"echo:" + args, 0.1


class TestRpcDispatch:
    def test_registered_function_called(self):
        sim, client, _ = make_rpc_rig([(7, ok_echo)])

        def body(sim):
            return (yield from client.call(7, b"payload"))

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value == (RPC_OK, b"echo:payload")

    def test_unknown_function_returns_status(self):
        sim, client, _ = make_rpc_rig([(7, ok_echo)])

        def body(sim):
            return (yield from client.call(8, b""))

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value == (RPC_NO_FUNCTION, b"")

    def test_application_error_status_propagates(self):
        def failing(args, ctx):
            return RPC_APP_ERROR, b"reason", 0.0

        sim, client, _ = make_rpc_rig([(1, failing)])

        def body(sim):
            return (yield from client.call(1, b""))

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value == (RPC_APP_ERROR, b"reason")

    def test_multiple_functions_dispatch_independently(self):
        sim, client, _ = make_rpc_rig(
            [(1, lambda a, c: (RPC_OK, b"one", 0.0)),
             (2, lambda a, c: (RPC_OK, b"two", 0.0))]
        )

        def body(sim):
            first = yield from client.call(1, b"")
            second = yield from client.call(2, b"")
            return first, second

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value == ((RPC_OK, b"one"), (RPC_OK, b"two"))

    def test_context_carries_client_and_thread(self):
        seen = {}

        def spy(args, ctx):
            seen["client"] = ctx.client_id
            seen["thread"] = ctx.thread_id
            return RPC_OK, b"", 0.0

        sim, client, _ = make_rpc_rig([(3, spy)])

        def body(sim):
            yield from client.call(3, b"")

        sim.process(body(sim))
        sim.run()
        assert seen["client"] >= 1
        assert seen["thread"] in (0, 1)


class TestRpcValidation:
    def test_duplicate_registration_rejected(self):
        dispatcher = RpcServer()
        dispatcher.register(1, ok_echo)
        with pytest.raises(ProtocolError):
            dispatcher.register(1, ok_echo)

    def test_function_id_must_fit_a_byte(self):
        dispatcher = RpcServer()
        with pytest.raises(ProtocolError):
            dispatcher.register(300, ok_echo)

    def test_client_function_id_validated(self):
        sim, client, _ = make_rpc_rig([(1, ok_echo)])
        with pytest.raises(ProtocolError):
            next(client.call(999, b""))

    def test_runt_request_rejected_by_dispatcher(self):
        """A runt is answered with a status at no cost, not raised: a raise
        would kill the server thread that polled it."""
        dispatcher = RpcServer()
        dispatcher.register(1, ok_echo)
        for payload in (b"", b"\x01"):
            assert dispatcher.handle(payload, context=None) == (
                bytes([RPC_MALFORMED]),
                0.0,
            )
