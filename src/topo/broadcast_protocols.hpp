// Runnable broadcast protocols: the branching-paths broadcast of Section
// 3.1 and its competitors, as NCU software on the simulated fabric.
//
// Schemes:
//   kBranchingPaths — the paper's algorithm: O(n) system calls,
//                     <= 1 + floor(log2 n) time units (Theorem 2).
//   kFlooding       — ARPANET baseline: O(m) system calls, O(n) time.
//   kDfsToken       — single Euler-tour message; n system calls, 1 unit,
//                     but loses all coverage past the first dead link
//                     (the paper's non-convergence example).
//   kLayeredBfs     — footnote-1 single message with O(n^2) header,
//                     1 unit; needs unbounded dmax.
//   kDirectUnicast  — root sends n-1 direct messages; 1 unit, n-1 calls,
//                     but the root pays one send per node.
#pragma once

#include <memory>
#include <vector>

#include "cost/metrics.hpp"
#include "graph/algorithms.hpp"
#include "node/parallel_cluster.hpp"
#include "topo/broadcast_plan.hpp"

namespace fastnet::topo {

enum class BroadcastScheme {
    kBranchingPaths,
    kFlooding,
    kDfsToken,
    kLayeredBfs,
    kDirectUnicast,
};

const char* scheme_name(BroadcastScheme s);

/// The broadcast payload for the planned schemes: the plan rides along so
/// every path-start node knows which messages to inject ("the message
/// contains a description of the tree").
struct BroadcastMessage final : hw::TypedPayload<BroadcastMessage> {
    std::shared_ptr<const BroadcastPlan> plan;
    NodeId origin = kNoNode;
    std::uint64_t round = 0;
};

/// Flooding payload.
struct FloodMessage final : hw::TypedPayload<FloodMessage> {
    NodeId origin = kNoNode;
    std::uint64_t round = 0;
};

/// Protocol implementing all schemes (selected at construction).
/// The origin builds its spanning tree from the supplied graph view
/// (min-hop, as the paper's T_i(t)) at start time.
class BroadcastProtocol final : public node::Protocol {
public:
    const char* name() const override { return "broadcast"; }
    BroadcastProtocol(const graph::Graph& g, BroadcastScheme scheme);

    void on_start(node::Context& ctx) override;
    void on_message(node::Context& ctx, const hw::Delivery& d) override;

    std::size_t memory_bytes() const override;

    // ---- observation ----------------------------------------------------
    bool received() const { return receive_time_ != kNever; }
    Tick receive_time() const { return receive_time_; }
    Tick dispatch_time() const { return dispatch_time_; }

private:
    void deliver_planned(node::Context& ctx, const BroadcastMessage& msg);
    void flood(node::Context& ctx, NodeId origin, std::uint64_t round,
               hw::PortId arrival_port);

    const graph::Graph& graph_;
    BroadcastScheme scheme_;
    Tick receive_time_ = kNever;   ///< Handler-completion time of first reception.
    Tick dispatch_time_ = kNever;  ///< Origin only: when its messages left.
    std::uint64_t next_round_ = 1;
    std::uint64_t& seen_round(NodeId origin);
    /// Flooding duplicate filter: newest round seen per origin. One node
    /// only ever hears from the few origins that actually flood, so this
    /// is a find-or-append list, NOT an n-entry table — the eager n-entry
    /// version made a cluster O(n^2) memory, which is exactly what the
    /// bytes/node bench guards against (docs/PERF.md "Memory at scale").
    std::vector<std::pair<NodeId, std::uint64_t>> seen_rounds_;
};

/// Outcome of one standalone broadcast run.
struct BroadcastOutcome {
    std::vector<bool> received;
    std::vector<Tick> receive_times;   ///< Handler completion per node; kNever if missed.
    Tick origin_dispatch = kNever;
    Tick last_receive = kNever;
    /// Elapsed ticks from origin dispatch to last reception.
    Tick elapsed = 0;
    /// Elapsed expressed in P-units (the paper's broadcast time measure);
    /// only meaningful when P > 0 and C == 0.
    double time_units = 0;
    cost::CostReport cost;
    bool all_received = false;
};

/// Runs one broadcast of `scheme` from `origin` over `g` and reports.
BroadcastOutcome run_broadcast(const graph::Graph& g, BroadcastScheme scheme, NodeId origin,
                               node::ParallelClusterConfig config = {});

}  // namespace fastnet::topo
