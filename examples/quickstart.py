#!/usr/bin/env python3
"""Quickstart: build a scenario, join peers, ask for nearby peers.

Runs in a few seconds on a laptop.  It walks through the library's main
objects in the order a user would meet them:

1. generate a synthetic router-level Internet map;
2. place landmarks on medium-degree routers and peers on degree-1 routers;
3. let every peer run the two-round join protocol (traceroute to its closest
   landmark, upload the path, receive its estimated-closest peers);
4. compare the answer against the brute-force optimum for one peer.
"""

from __future__ import annotations

from repro import ScenarioConfig, build_scenario
from repro.topology import RouterMapConfig


def main() -> None:
    # A small map (~600 routers) so the example is instant; drop the
    # router_map_config argument to use the full ~4000-router default.
    config = ScenarioConfig(
        peer_count=80,
        landmark_count=4,
        neighbor_set_size=5,
        router_map_config=RouterMapConfig.small(7),
        seed=7,
    )
    scenario = build_scenario(config)

    print("== Router-level map ==")
    graph = scenario.router_map.graph
    print(f"routers: {graph.node_count}, links: {graph.edge_count}")
    print(f"degree-1 routers (peer attachment points): {len(scenario.router_map.stub_routers())}")
    print(f"landmarks: {scenario.landmark_set.ids()}")
    print()

    print("== Joining all peers through the management server ==")
    scenario.join_all()
    print(f"registered peers: {scenario.server.peer_count}")
    print(f"server stats: {scenario.server.stats}")
    print()

    peer = "peer0"
    print(f"== Nearby peers for {peer} ==")
    recommended = scenario.server.closest_peers(peer, k=5)
    optimal = scenario.oracle.closest_peers(peer, k=5)
    print(f"{'recommended (dtree)':<30} {'optimal (true hops)':<30}")
    for (rec_peer, rec_distance), (opt_peer, opt_distance) in zip(recommended, optimal):
        print(f"{rec_peer:<12} dtree={rec_distance:<10.0f} {opt_peer:<12} d={opt_distance:<10.0f}")

    recommended_ids = [p for p, _ in recommended]
    cost_scheme = scenario.oracle.neighbor_cost(peer, recommended_ids)
    cost_optimal = scenario.oracle.neighbor_cost(peer, [p for p, _ in optimal])
    print()
    print(f"D (scheme)  = {cost_scheme:.0f} true hops")
    print(f"D (optimal) = {cost_optimal:.0f} true hops")
    print(f"ratio       = {cost_scheme / cost_optimal:.2f}  (1.0 would be perfect)")


if __name__ == "__main__":
    main()
