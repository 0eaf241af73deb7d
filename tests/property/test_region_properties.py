"""Property: a registered region behaves like ``bytearray(size)``.

A :class:`~repro.hw.memory.MemoryRegion` holds only the 64-byte lines up
to the furthest byte an access has reached, so every access path must
grow it first: host reads, writes and fills, and the four one-sided verb
stages (the RDMA Write's snapshot and delivery, the RDMA Read's sample
and landing).  A random mix of all of them, between a client region and
a server region over one RC queue pair, must read exactly what a
zero-filled ``bytearray`` of the same size reads, and each region must
hold the lines its accesses reached and nothing past its size.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import CLUSTER_EUROSYS17, build_cluster
from repro.sim import Simulator

LINE = 64

#: Region sizes: around one and two lines, and sizes no multiple of 64.
sizes = st.one_of(
    st.sampled_from([1, 63, 64, 65, 127, 128, 129, 200, 1000]),
    st.integers(min_value=1, max_value=600),
)


@st.composite
def span(draw, size):
    """An in-bounds ``(offset, length)``, often on a line edge or the
    region's last byte."""
    edges = [0, 63, 64, 65, size - 1, size]
    offset = draw(
        st.one_of(
            st.sampled_from([edge for edge in edges if 0 <= edge <= size]),
            st.integers(min_value=0, max_value=size),
        )
    )
    room = size - offset
    lengths = [0, 1, 63, 64, 65, room]
    length = draw(
        st.one_of(
            st.sampled_from([n for n in lengths if n <= room]),
            st.integers(min_value=0, max_value=room),
        )
    )
    return offset, length


@st.composite
def scripts(draw):
    size_a, size_b = draw(sizes), draw(sizes)
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        kind = draw(
            st.sampled_from(["read", "write", "fill", "rdma-read", "rdma-write"])
        )
        if kind in ("rdma-read", "rdma-write"):
            # The verbs need a span that fits both regions.
            local, _ = draw(span(size_a))
            remote, length = draw(span(size_b))
            length = min(length, size_a - local)
            steps.append((kind, local, remote, length))
            continue
        side = draw(st.sampled_from("ab"))
        offset, length = draw(span(size_a if side == "a" else size_b))
        byte = draw(st.integers(min_value=0, max_value=255))
        steps.append((kind, side, offset, length, byte))
    return size_a, size_b, steps


def held(reached, size):
    """Bytes a region holds once an access reached byte ``reached``."""
    return min(-(-reached // LINE) * LINE, size)


@settings(max_examples=200, deadline=None)
@given(scripts())
def test_region_matches_a_zero_filled_bytearray(script):
    size_a, size_b, steps = script
    sim = Simulator()
    cluster = build_cluster(sim, CLUSTER_EUROSYS17)
    endpoint, _ = cluster.connect(cluster.machines[1], cluster.server)
    regions = {
        "a": endpoint.machine.register_memory(size_a),
        "b": cluster.server.register_memory(size_b),
    }
    model = {"a": bytearray(size_a), "b": bytearray(size_b)}
    reached = {"a": 0, "b": 0}
    for number, step in enumerate(steps):
        kind = step[0]
        if kind in ("rdma-read", "rdma-write"):
            _, local, remote, length = step
            if kind == "rdma-read":
                done = endpoint.post_read(regions["a"], local, regions["b"], remote, length)
                model["a"][local : local + length] = model["b"][remote : remote + length]
            else:
                done = endpoint.post_write(regions["a"], local, regions["b"], remote, length)
                model["b"][remote : remote + length] = model["a"][local : local + length]
            sim.run()
            assert done.triggered
            reached["a"] = max(reached["a"], local + length)
            reached["b"] = max(reached["b"], remote + length)
        else:
            _, side, offset, length, byte = step
            region = regions[side]
            if kind == "read":
                got = region.read_local(offset, length)
                assert got == bytes(model[side][offset : offset + length])
            elif kind == "write":
                data = bytes((byte + number + i) % 256 for i in range(length))
                region.write_local(offset, data)
                model[side][offset : offset + length] = data
            else:
                region.fill(offset, length, byte)
                model[side][offset : offset + length] = bytes([byte]) * length
            reached[side] = max(reached[side], offset + length)
        for side, region in regions.items():
            assert region._extent == held(reached[side], region.size)
            assert len(region._view) == region._extent
    for side, region in regions.items():
        assert region.read_local(0, region.size) == bytes(model[side])
