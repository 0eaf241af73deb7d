"""Resident-memory budget: host memory per registered region and per RFP
connection.

Registered regions read as zeros and become resident page by page as
they are written (:mod:`repro.hw.memory`), so registering a buffer costs
address space, not resident memory, until a run writes into it.  Two
counts hold that:

- registering 2,000 regions of 16 KiB (31.25 MiB registered) on one
  machine;
- a Jakiro server with 6 threads and 35 connected clients, which is 210
  RFP connections of seven registered buffers (about 80 KiB) each, after
  a short closed-loop run of 32 B GETs.

Each measurement runs in a fresh interpreter: in this process, pages
that earlier tests freed would absorb the growth.  Resident memory is
read from ``/proc/self/statm``; the checks skip where that file is
missing.
"""

import os
import subprocess
import sys

import pytest

import repro

STATM = "/proc/self/statm"

#: Resident growth allowed for registering the 2,000 regions.
REGIONS_BUDGET_MIB = 4.0
#: Resident growth allowed per RFP connection.
CONNECTION_BUDGET_KIB = 40.0
CONNECTIONS = 35 * 6

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

pytestmark = pytest.mark.skipif(
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


def test_registering_regions_stays_within_budget():
    grown_mib = resident_growth(REGISTER_REGIONS) / (1 << 20)
    assert grown_mib < REGIONS_BUDGET_MIB, (
        f"registering 2,000 x 16 KiB grew resident memory by "
        f"{grown_mib:.1f} MiB, budget {REGIONS_BUDGET_MIB} MiB"
    )


def test_rfp_connections_stay_within_budget():
    per_connection_kib = resident_growth(RUN_CONNECTIONS) / CONNECTIONS / 1024
    assert per_connection_kib < CONNECTION_BUDGET_KIB, (
        f"{per_connection_kib:.1f} KiB resident per RFP connection, "
        f"budget {CONNECTION_BUDGET_KIB} KiB"
    )
