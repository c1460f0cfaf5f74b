// The topology maintenance protocol of Section 3.
//
// Every node keeps a database of local topologies (its own plus whatever
// it has learned from broadcasts), each stamped with the originator's
// sequence number. Periodically, node i:
//   1. computes T_i(t), a min-hop spanning tree of its *current view*
//      G_i(t), rooted at i — expanding only through nodes whose local
//      topology (and hence ports) it knows;
//   2. broadcasts its local topology (or, in full-knowledge mode, its
//      entire database — the paper's "log d" improvement) over T_i(t)
//      using the configured broadcast scheme;
//   3. merges any received topology messages by sequence number.
//
// With the branching-paths scheme this yields eventual consistency
// (Theorem 1): after the last topological change, every node's view of
// its connected component becomes exact within O(d) rounds. With the
// DFS-token scheme, the paper's Section 3 example shows rounds can
// deadlock forever; Options::dfs_preference reproduces the adversarial
// route choices of that example.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "graph/rooted_tree.hpp"
#include "hw/network.hpp"
#include "node/parallel_cluster.hpp"
#include "topo/broadcast_protocols.hpp"

namespace fastnet::topo {

/// One adjacent-link record as it appears in a local topology.
struct NeighborRecord {
    NodeId neighbor = kNoNode;
    hw::PortId port = hw::kNoPort;      ///< Port at the record's *owner*.
    hw::PortId far_port = hw::kNoPort;  ///< Port at the neighbor (learned
                                        ///< during data-link init).
    bool active = true;
};

/// A node's local topology, as stored/learned.
struct LocalTopology {
    bool known = false;
    std::uint64_t seq = 0;
    std::vector<NeighborRecord> links;
};

/// One published local topology. The owner builds a new snapshot each
/// time its record changes and never modifies one it has built; every
/// database and packet that learns (owner, seq) shares that one object,
/// as every NCU on a broadcast path receives the same bits.
using TopologySnapshot = std::shared_ptr<const LocalTopology>;

struct TopologyOptions {
    BroadcastScheme scheme = BroadcastScheme::kBranchingPaths;
    /// Broadcast period; each node rebroadcasts every `period` ticks.
    Tick period = 64;
    /// Total number of rounds each node performs (the harness bounds runs).
    unsigned rounds = 8;
    /// Broadcast the whole database instead of only the local topology
    /// (the "log d instead of d" comment after Theorem 1).
    bool full_knowledge = false;
    /// Optional per-origin DFS branch preference (adversarial example):
    /// dfs_preference[origin] lists neighbors whose branches the Euler
    /// tour must visit first.
    std::vector<std::vector<NodeId>> dfs_preference;
};

/// The broadcast payload of one round.
struct TopologyMessage final : hw::TypedPayload<TopologyMessage> {
    NodeId origin = kNoNode;
    std::uint64_t seq = 0;
    /// (owner, topology) pairs carried by this broadcast.
    std::vector<std::pair<NodeId, TopologySnapshot>> topologies;
    std::shared_ptr<const BroadcastPlan> plan;
};

class TopologyMaintenance final : public node::Protocol {
public:
    const char* name() const override { return "topology_maintenance"; }
    TopologyMaintenance(NodeId node_count, TopologyOptions options);

    void on_start(node::Context& ctx) override;
    void on_restart(node::Context& ctx) override;
    void on_timer(node::Context& ctx, std::uint64_t cookie) override;
    void on_link_state(node::Context& ctx, const node::LocalLink& link, bool up) override;
    void on_message(node::Context& ctx, const hw::Delivery& d) override;
    /// Counts each snapshot once across the cluster: the slot array plus
    /// this node's own current snapshot. A snapshot learned from another
    /// node is counted at its owner. No reference count is read, so the
    /// figure stays a pure function of the simulation, equal at any
    /// shards x threads.
    std::size_t memory_bytes() const override;

    // ---- observation -----------------------------------------------------
    /// u's record as this node knows it (`known` false when it has none).
    const LocalTopology& view_of(NodeId u) const;
    std::uint64_t rounds_done() const { return my_seq_; }

    /// The node's current usable view as an edge list (u < v) considered
    /// active. An edge is usable when at least one endpoint's topology is
    /// known and every known endpoint reports it active.
    std::vector<std::pair<NodeId, NodeId>> active_view() const;

    /// Computes a min-hop ANR route from `self` to `dst` over the current
    /// view (the "route computation" duty the paper assigns the NCU).
    /// Empty optional when dst is not reachable in the view.
    std::optional<hw::AnrHeader> route_to(NodeId self, NodeId dst) const;

private:
    /// Publishes a new snapshot of ctx.links() stamped `seq` as our record.
    void refresh_local(node::Context& ctx, std::uint64_t seq);
    void do_round(node::Context& ctx);
    graph::RootedTree known_tree(NodeId self) const;
    /// The far side's record of link `r` of node u (the far side must be
    /// known).
    const NeighborRecord& far_record(NodeId u, const NeighborRecord& r) const;
    hw::PortMap db_ports() const;

    NodeId n_;
    NodeId self_ = kNoNode;  ///< Set (with db_[self_]) by refresh_local.
    TopologyOptions options_;
    /// One slot per node; empty while that node's topology is unknown.
    std::vector<TopologySnapshot> db_;
    std::uint64_t my_seq_ = 0;
    unsigned rounds_left_ = 0;
};

/// Factory for ParallelCluster construction.
node::ProtocolFactory make_topology_maintenance(NodeId node_count, TopologyOptions options);

/// True if `self`'s view is exact over its *actual* connected component
/// (component computed over currently-active links of `net`): every
/// member's topology is known and every record's activity flag matches
/// the network truth.
bool view_converged(const TopologyMaintenance& proto, const hw::Network& net, NodeId self);

/// True if every node's view has converged.
bool all_views_converged(node::ParallelCluster& cluster);

}  // namespace fastnet::topo
