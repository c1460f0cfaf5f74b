// call_center — running the PARIS call setup application on a backbone.
//
// Simulates a day of traffic on a 20-node network: sources place calls
// with hold times, capacity admission rejects the excess, a link failure
// drops the calls riding it. Prints the resulting admission statistics
// and the A5 comparison (selective copy vs hop-by-hop setup latency).
//
//   $ ./call_center
#include <iostream>

#include "fastnet.hpp"

using namespace fastnet;
using paris::CallRequest;

int main() {
    Rng rng(88);
    graph::Graph g = graph::make_random_connected(20, 2, 10, rng);
    std::cout << "backbone: n=" << g.node_count() << " links=" << g.edge_count()
              << ", per-link capacity 2 units\n\n";

    // Traffic: 40 calls over the day with random hold times.
    std::map<NodeId, std::vector<CallRequest>> scripts;
    for (int i = 0; i < 40; ++i) {
        const NodeId src = static_cast<NodeId>(rng.below(20));
        NodeId dst = static_cast<NodeId>(rng.below(20));
        if (dst == src) dst = (dst + 1) % 20;
        scripts[src].push_back(CallRequest{static_cast<Tick>(1 + rng.below(600)), dst, 1,
                                           static_cast<Tick>(150 + rng.below(300))});
    }

    node::ParallelCluster cluster(g, paris::make_call_agents(g, 2, scripts));
    cluster.start_all(0);
    // An incident at t=400: one link dies (calls riding it drop).
    cluster.fail_link(400, 3);
    cluster.run_until(399);
    std::cout << "[t=400] link 3 failed — calls riding it will disconnect\n";
    cluster.run();

    unsigned carried = 0, rejected = 0, failed = 0, still_up = 0;
    for (NodeId u = 0; u < g.node_count(); ++u) {
        const auto& a = cluster.protocol_as<paris::CallAgentProtocol>(u);
        carried += a.calls_released();
        rejected += a.calls_rejected();
        failed += a.calls_failed();
        still_up += a.calls_active();
    }
    util::Table day({"offered", "completed", "rejected_admission", "dropped_by_failure",
                     "still_active"});
    day.add(40u, carried, rejected, failed, still_up);
    day.print(std::cout, "end-of-day statistics");

    std::cout << "\ncall setup economics on this fabric (the Section 2 copy trick):\n";
    util::Table cmp({"path_hops", "copy_setup_ticks", "hop_by_hop_ticks"});
    for (NodeId n : {4u, 16u, 64u}) {
        auto run_mode = [n](bool copy) {
            const graph::Graph path = graph::make_path(n);
            std::map<NodeId, std::vector<CallRequest>> s{{0, {CallRequest{1, n - 1, 1, -1}}}};
            node::ParallelCluster c(path, paris::make_call_agents(path, 4, s, copy));
            c.start_all(0);
            return c.run();
        };
        cmp.add(n - 1, run_mode(true), run_mode(false));
    }
    cmp.print(std::cout, "one call across k switches");
    std::cout << "\nWith selective copy every on-path NCU hears the setup at once;\n"
                 "without it the request crawls one software hop at a time.\n";
    return 0;
}
