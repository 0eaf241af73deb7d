"""Resident-memory budget: host memory per registered region, per RFP
connection and per stored key-value pair.

Registered regions read as zeros and hold host memory only for the
64-byte lines up to the furthest byte an access has reached
(:mod:`repro.hw.memory`), so registering a buffer costs a small object,
not its size, until a run touches it.  Two counts hold that:

- registering 2,000 regions of 16 KiB (31.25 MiB registered) on one
  machine;
- a Jakiro server with 6 threads and 35 connected clients, which is 210
  RFP connections of seven registered buffers (about 80 KiB) each, after
  a short closed-loop run of 32 B GETs.

A Jakiro bucket is one flat list of key/value/stamp triples
(:mod:`repro.kv.store`), so a stored pair costs three list entries and
its stamp.  Loading 200,000 distinct pairs into 6 x 4,096 buckets (the
``kv-write-zipf`` regime: 2% more pairs than slots) holds that per pair,
with every key already in the key-hash memo so hashing is not counted.
Beside it, a count that needs no resident-memory reading: a load adds
exactly one object the garbage collector tracks per bucket it fills,
and none per pair.

Each resident-memory measurement runs in a fresh interpreter: in this
process, pages that earlier tests freed would absorb the growth.
Resident memory is read from ``/proc/self/statm``; those checks skip
where that file is missing.
"""

import gc
import os
import subprocess
import sys

import pytest

import repro
from repro.kv.store import JakiroStore

STATM = "/proc/self/statm"

#: Resident growth allowed for registering the 2,000 regions.
REGIONS_BUDGET_MIB = 0.5
#: Resident growth allowed per RFP connection.
CONNECTION_BUDGET_KIB = 12.0
CONNECTIONS = 35 * 6
#: Resident growth allowed per pair loaded into a Jakiro store.
PAIR_BUDGET_BYTES = 100.0
STORED_PAIRS = 200_000

PRELUDE = """
import os

from repro.hw import CLUSTER_EUROSYS17, build_cluster
from repro.sim import Simulator


def rss():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


sim = Simulator()
hw = build_cluster(sim, CLUSTER_EUROSYS17)
"""

REGISTER_REGIONS = PRELUDE + """
before = rss()
regions = [hw.server.register_memory(16384) for _ in range(2000)]
print(rss() - before)
"""

RUN_CONNECTIONS = PRELUDE + """
from repro.kv import Jakiro

jakiro = Jakiro(sim, hw, threads=6, seed=5)
keys = [b"memory-key-%04d" % index for index in range(1024)]
jakiro.preload([(key, b"v" * 32) for key in keys])
before = rss()


def loop(client, position):
    while True:
        yield from client.get(keys[position % len(keys)])
        position += 7


machines = hw.client_machines
for index in range(35):
    client = jakiro.connect(machines[index % len(machines)], name=f"c{index}")
    sim.process(loop(client, index * 131))
sim.run(until=500.0)
print(rss() - before)
"""

LOAD_PAIRS = f"""
import os

from repro.kv.store import JakiroStore, key_hashes


def rss():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


value = b"v" * 32
keys = [b"memory-pair-%07d" % index for index in range({STORED_PAIRS})]
pairs = [(key, value) for key in keys]
key_hashes(keys)
# A first load takes NumPy's one-time imports and caches.
JakiroStore(1, buckets_per_partition=1).load(pairs[:2])
store = JakiroStore(6, buckets_per_partition=4096)
before = rss()
store.load(pairs)
print(rss() - before)
"""

needs_statm = pytest.mark.skipif(
    not os.path.exists(STATM), reason=f"needs {STATM} to read resident memory"
)


def resident_growth(script):
    """Bytes of resident memory ``script`` reports it grew by."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE,
        text=True,
        timeout=120,
        check=True,
    )
    return int(done.stdout.split()[-1])


@needs_statm
def test_registering_regions_stays_within_budget():
    grown_mib = resident_growth(REGISTER_REGIONS) / (1 << 20)
    assert grown_mib < REGIONS_BUDGET_MIB, (
        f"registering 2,000 x 16 KiB grew resident memory by "
        f"{grown_mib:.1f} MiB, budget {REGIONS_BUDGET_MIB} MiB"
    )


@needs_statm
def test_rfp_connections_stay_within_budget():
    per_connection_kib = resident_growth(RUN_CONNECTIONS) / CONNECTIONS / 1024
    assert per_connection_kib < CONNECTION_BUDGET_KIB, (
        f"{per_connection_kib:.1f} KiB resident per RFP connection, "
        f"budget {CONNECTION_BUDGET_KIB} KiB"
    )


@needs_statm
def test_stored_pairs_stay_within_budget():
    per_pair = resident_growth(LOAD_PAIRS) / STORED_PAIRS
    assert per_pair < PAIR_BUDGET_BYTES, (
        f"{per_pair:.0f} B resident per loaded pair, budget {PAIR_BUDGET_BYTES} B"
    )


def test_load_adds_one_tracked_object_per_filled_bucket():
    pairs = [(b"tracked-pair-%06d" % index, b"v" * 32) for index in range(20_000)]
    # A first load of the same pairs takes NumPy's one-time imports and
    # caches and fills the key-hash memo.
    JakiroStore(6, buckets_per_partition=408).load(pairs)
    store = JakiroStore(6, buckets_per_partition=408)
    gc.collect()
    before = len(gc.get_objects())
    store.load(pairs)
    gc.collect()
    added = len(gc.get_objects()) - before
    filled = sum(size > 0 for sizes in store.bucket_sizes() for size in sizes)
    assert store.counters.evictions.value > 2_000
    assert added == filled, f"{added} tracked objects for {filled} filled buckets"
