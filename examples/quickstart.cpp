// Quickstart: the fastnet API in ~100 lines.
//
// Builds a small network, shows the hardware model (ANR source routing
// with selective copy), runs the paper's branching-paths broadcast and
// a leader election, and prints the cost reports in the paper's
// measures (system calls / time units).
//
//   $ ./quickstart
#include <iostream>

#include "fastnet.hpp"

using namespace fastnet;

namespace {

/// A payload type: anything immutable deriving from hw::TypedPayload<T>
/// (which gives payload_as<T> an O(1) type test).
struct Hello final : hw::TypedPayload<Hello> {
    explicit Hello(std::string m) : message(std::move(m)) {}
    std::string message;
};

/// A protocol: NCU software reacting to starts / messages / timers.
class GreeterProtocol final : public node::Protocol {
public:
    void on_start(node::Context& ctx) override {
        // Send a greeting two hops down the line: self -> n1 -> n2.
        // The route is a list of outgoing link ids; links() is the local
        // topology every NCU knows a priori.
        if (ctx.links().empty()) return;
        const auto& first = ctx.links()[0];
        std::cout << "[t=" << ctx.now() << "] node " << ctx.self()
                  << " starts; sending a greeting via port " << first.port << "\n";
        // On the path 0-1-2-3, node 1's port 2 is its second incident
        // link, i.e. the one toward node 2.
        hw::AnrHeader route{hw::AnrLabel::normal(first.port), hw::AnrLabel::normal(2),
                            hw::AnrLabel::normal(hw::kNcuPort)};
        ctx.send(std::move(route), std::make_shared<Hello>("hello from the edge"));
    }
    void on_message(node::Context& ctx, const hw::Delivery& d) override {
        if (const auto* hello = hw::payload_as<Hello>(d)) {
            std::cout << "[t=" << ctx.now() << "] node " << ctx.self() << " received \""
                      << hello->message << "\" after " << d.hops
                      << " hardware hops (one system call here)\n";
            // Replying needs no routing tables: the delivery carries a
            // reverse route (Section 2's receiver-reply capability).
            // Only greetings are acknowledged (acks are not).
            if (hello->message != "ack") ctx.reply(d, std::make_shared<Hello>("ack"));
        }
    }
};

}  // namespace

int main() {
    std::cout << "== 1. The node model: SS + NCU, ANR routing =============\n";
    // A 4-node path; model of Sections 3-4: hop delay C=0, NCU delay P=1.
    {
        node::ParallelCluster cluster(graph::make_path(4),
                                      [](NodeId) { return std::make_unique<GreeterProtocol>(); });
        cluster.start(0, 0);
        cluster.run();
        const cost::Metrics m = cluster.merged_metrics();
        std::cout << "total system calls: " << m.total_message_system_calls()
                  << ", hardware hops: " << m.net().hops << "\n";
    }

    std::cout << "\n== 2. Branching-paths broadcast (Section 3) =============\n";
    {
        Rng rng(1);
        const graph::Graph g = graph::make_random_connected(64, 1, 10, rng);
        const auto out =
            topo::run_broadcast(g, topo::BroadcastScheme::kBranchingPaths, 0);
        std::cout << "covered " << g.node_count() << " nodes with "
                  << out.cost.system_calls << " system calls in " << out.time_units
                  << " time units (Theorem 2 bound: " << 1 + floor_log2(g.node_count())
                  << ")\n";
        const auto flood = topo::run_broadcast(g, topo::BroadcastScheme::kFlooding, 0);
        std::cout << "ARPANET flooding needed " << flood.cost.system_calls
                  << " system calls (m = " << g.edge_count() << ")\n";
    }

    std::cout << "\n== 3. Leader election (Section 4) =======================\n";
    {
        Rng rng(2);
        const graph::Graph g = graph::make_random_connected(100, 1, 25, rng);
        const auto out = elect::run_election(g);
        std::cout << "leader: node " << out.leader << "; election used "
                  << out.election_messages << " direct messages (Theorem 5 bound: "
                  << 6 * g.node_count() << ")\n";
    }

    std::cout << "\n== 4. Globally sensitive functions (Section 5) ==========\n";
    {
        const Tick C = 1, P = 1;
        const auto r = gsf::build_optimal_tree(100, C, P);
        const auto out = gsf::run_tree_gather(r.tree, {C, P, 0});
        std::cout << "optimal gather of 100 inputs at C=1,P=1: predicted "
                  << r.predicted_time << " ticks, simulated " << out.completion
                  << " ticks, result " << (out.correct ? "correct" : "WRONG") << "\n";
        std::cout << "a star would take "
                  << gsf::predicted_completion(gsf::make_star_tree(100), C, P)
                  << " ticks on the same complete graph\n";
    }
    return 0;
}
