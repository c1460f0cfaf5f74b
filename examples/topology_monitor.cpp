// topology_monitor — operating the Section 3 topology maintenance
// protocol on a live network with failures.
//
// Scenario: a 30-node ISP-ish backbone runs periodic branching-paths
// topology broadcasts. A cascade of link failures hits mid-run (one of
// them partitions the network), then a repair crew restores a link.
// The example prints a timeline of what each event does to global
// knowledge, and closes with the per-round cost accounting that makes
// the paper's case against flooding.
//
//   $ ./topology_monitor
#include <iostream>

#include "fastnet.hpp"

using namespace fastnet;

namespace {

void report(node::ParallelCluster& cluster, Tick at, const char* what) {
    std::size_t converged = 0;
    for (NodeId u = 0; u < cluster.node_count(); ++u) {
        const auto& p = cluster.protocol_as<topo::TopologyMaintenance>(u);
        if (topo::view_converged(p, cluster.mirror(0), u)) ++converged;
    }
    std::cout << "[t=" << at << "] " << what << ": " << converged << "/"
              << cluster.node_count() << " nodes hold an exact view of their component\n";
}

}  // namespace

int main() {
    Rng rng(2024);
    const graph::Graph g = graph::make_random_connected(30, 1, 10, rng);
    std::cout << "backbone: n=" << g.node_count() << " links=" << g.edge_count()
              << " diameter=" << graph::diameter(g) << "\n\n";

    topo::TopologyOptions opt;
    opt.scheme = topo::BroadcastScheme::kBranchingPaths;
    opt.period = 100;
    opt.rounds = 30;
    node::ParallelCluster cluster(g, topo::make_topology_maintenance(g.node_count(), opt));
    cluster.start_all(0);

    // Scripted incidents: three failures, then one repair.
    Rng chaos(7);
    std::vector<EdgeId> victims;
    for (int i = 0; i < 3; ++i)
        victims.push_back(static_cast<EdgeId>(chaos.below(g.edge_count())));
    for (EdgeId e : victims) cluster.fail_link(550, e);
    cluster.restore_link(1450, victims[0]);

    // Observation points between rounds; the incidents print as the
    // clock passes them.
    for (Tick at : {400, 550, 700, 1000, 1300, 1450, 1700, 2400}) {
        cluster.run_until(at);
        if (at == 550)
            std::cout << "[t=550] INCIDENT: " << victims.size() << " links failed\n";
        else if (at == 1450)
            std::cout << "[t=1450] REPAIR: link " << victims[0] << " restored\n";
        else
            report(cluster, at, "checkpoint");
    }
    report(cluster, cluster.run(), "final");

    // Cost epilogue.
    const auto n = static_cast<std::uint64_t>(g.node_count());
    const auto m = static_cast<std::uint64_t>(g.edge_count());
    const std::uint64_t calls = cluster.merged_metrics().total_message_system_calls();
    const std::uint64_t rounds_total = 30 * n;
    std::cout << "\ncost: " << calls << " message system calls over ~" << rounds_total
              << " broadcasts => " << (calls / rounds_total)
              << " calls per broadcast on average (paper: <= n-1 = " << n - 1
              << "; flooding would pay ~2m = " << 2 * m << " per broadcast)\n";
    return 0;
}
