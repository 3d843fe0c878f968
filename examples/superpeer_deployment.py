#!/usr/bin/env python3
"""Super-peers as shards of the management plane (paper future work).

The paper closes with "the opportunity to use some super-peers": a single
management server is a bottleneck.  The sharded plane is that deployment —
``ScenarioConfig(shard_count=n)`` consistent-hashes the landmarks across
``n`` shards, and every peer lives on the shard that owns its landmark.
This example joins the same population at 1, 2, 4 and 8 shards and prints

* neighbour quality (``D / D_closest`` priced with the brute-force oracle),
* load balance (fraction of peers on the busiest shard).

The sharded plane answers exactly as the single server does, so the quality
column must not move; the script exits non-zero if any shard count's ratio
differs from the 1-shard ratio.
"""

from __future__ import annotations

import sys

from repro.experiments.ablations import superpeer_study


def main() -> int:
    table = superpeer_study(
        shard_counts=(1, 2, 4, 8),
        peer_count=150,
        landmark_count=8,
        neighbor_set_size=3,
        seed=37,
    )
    print(table.to_text())
    print()

    rows = {row["shards"]: row for row in table.rows}
    single = rows[1]
    most = rows[max(rows)]
    print(f"quality with 1 shard  : D/D_closest = {single['scheme_ratio']:.3f}")
    print(f"quality with {max(rows)} shards : D/D_closest = {most['scheme_ratio']:.3f}")
    print(f"busiest shard's load  : {single['max_load_fraction']:.0%} -> "
          f"{most['max_load_fraction']:.0%} of all peers")

    moved = [count for count, row in rows.items() if row["scheme_ratio"] != single["scheme_ratio"]]
    if moved:
        print(f"FAIL: the ratio moved at {moved} shards", file=sys.stderr)
        return 1
    print("Sharding spreads registrations across shards and leaves every answer unchanged.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
