#!/usr/bin/env python3
"""Port RFP to different hardware and watch the parameters adapt.

The paper stresses that R and F depend on the NIC (§3.2): rerun the
selection pipeline on three hardware generations — ConnectX-2 (20 Gbps),
the paper's ConnectX-3 (40 Gbps), and ConnectX-4 (100 Gbps) — and on a
hypothetical NIC with *no* in/out-bound asymmetry, where the whole
paradigm stops paying.

Run:  python examples/custom_hardware.py
"""

from repro.bench.harness import Scale, run_kv
from repro.core import derive_size_bounds
from repro.exp.drivers import CLUSTERS
from repro.hw import CONNECTX2, CONNECTX3, CONNECTX4, pipeline_service_time
from repro.hw.specs import ClusterSpec, MachineSpec
from repro.workloads import WorkloadSpec

SIZES = [32, 64, 128, 192, 256, 384, 512, 640, 768, 1024, 1536, 2048, 4096, 8192]


def model_curve(nic):
    """The NIC's in-bound IOPS-vs-size curve from the pipeline model."""
    return [
        (
            size,
            1.0
            / pipeline_service_time(
                nic.inbound_base_us,
                size,
                nic.effective_bandwidth_bytes_per_us,
                nic.softmax_order,
            ),
        )
        for size in SIZES
    ]


def main() -> None:
    print("1) The useful fetch range [L, H] per NIC generation:\n")
    print(f"{'nic':28s} {'asym':>6s} {'L':>6s} {'H':>6s}")
    for nic in (CONNECTX2, CONNECTX3, CONNECTX4):
        curve = model_curve(nic)
        lower, upper = derive_size_bounds(
            [s for s, _ in curve], [r for _, r in curve]
        )
        asym = nic.inbound_peak_mops / nic.outbound_peak_mops
        print(f"{nic.name:28s} {asym:6.1f} {lower:6d} {upper:6d}")
    print(
        "\n   Faster links push H upward: with more bandwidth, larger"
        "\n   fetches stay IOPS-limited longer."
    )

    print("\n2) Jakiro vs ServerReply across hardware (95% GET, 32 B):\n")
    scale = Scale.fast()
    spec = WorkloadSpec(records=scale.records)
    print(f"{'cluster':28s} {'jakiro':>8s} {'reply':>8s} {'gain':>6s}")
    for label, nic in (
        ("ConnectX-2 / 20 Gbps", CONNECTX2),
        ("ConnectX-3 / 40 Gbps", CONNECTX3),
        ("ConnectX-4 / 100 Gbps", CONNECTX4),
    ):
        cluster = ClusterSpec(machine=MachineSpec(nic=nic), machines=8)
        jakiro = run_kv("jakiro", spec, scale=scale, cluster_spec=cluster)
        reply = run_kv("serverreply", spec, scale=scale, cluster_spec=cluster)
        gain = jakiro.throughput_mops / reply.throughput_mops
        print(
            f"{label:28s} {jakiro.throughput_mops:8.2f} "
            f"{reply.throughput_mops:8.2f} {gain:5.1f}x"
        )

    symmetric = CLUSTERS["symmetric"]
    jakiro = run_kv("jakiro", spec, scale=scale, cluster_spec=symmetric)
    reply = run_kv("serverreply", spec, scale=scale, cluster_spec=symmetric)
    gain = jakiro.throughput_mops / reply.throughput_mops
    print(
        f"{'hypothetical symmetric NIC':28s} {jakiro.throughput_mops:8.2f} "
        f"{reply.throughput_mops:8.2f} {gain:5.1f}x"
    )
    print(
        "\n   The gain tracks the asymmetry: on symmetric hardware remote"
        "\n   fetching is pure overhead — the paradigm exists because of"
        "\n   Observation 1."
    )


if __name__ == "__main__":
    main()
