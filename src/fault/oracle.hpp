// The convergence oracle: what must hold after the faults stop.
//
// Theorem 1 promises eventual consistency — after the last topological
// change, every node's view of its connected component becomes exact.
// The oracle turns that (and its companions for the router and the
// election) into assertions checkable on a quiesced ParallelCluster:
//
//   * quiescence      — the simulation truly ran out of work;
//   * no in-flight    — every pooled packet cursor was released: nothing
//                       survived a link epoch bump (no resurrection);
//   * views exact     — every *live* node's topology view equals ground
//                       truth over its component (Theorem 1);
//   * <= 1 leader     — at most one live node holds Role::kLeader
//                       (election safety; crash churn may cost liveness,
//                       never safety);
//   * delivery        — scripted datagrams arrived despite the faults.
//
// Checks accumulate human-readable violations instead of throwing, so a
// chaos sweep can report every broken invariant of a seed at once.
#pragma once

#include <string>
#include <vector>

#include "node/parallel_cluster.hpp"

namespace fastnet::fault {

struct OracleReport {
    std::vector<std::string> violations;
    bool ok() const { return violations.empty(); }
    /// All violations joined with "; " ("ok" when none).
    std::string summary() const;
};

class Oracle {
public:
    /// Quiescence spans every shard, in-flight cursors are summed over
    /// the shards, and topology ground truth is read through shard 0's
    /// network (every shard reads the same hw::Fabric).
    explicit Oracle(node::ParallelCluster& cluster) : cluster_(cluster) {}

    /// The cluster must have no pending events or queued NCU work.
    Oracle& require_quiescent();

    /// Every pooled packet must be back on the free list — a packet that
    /// outlived its link epoch would still hold a cursor.
    Oracle& require_no_inflight();

    /// Theorem 1: every live node's topology view is exact over its
    /// actual connected component. Works for clusters running
    /// TopologyMaintenance directly or embedded in RouterProtocol.
    Oracle& require_views_converged();

    /// Election safety: at most one live node believes it is the leader.
    Oracle& require_at_most_one_leader();

    /// Router delivery: node `at` received (src, tag).
    Oracle& require_received(NodeId at, NodeId src, std::uint64_t tag);

    const OracleReport& report() const { return report_; }
    bool ok() const { return report_.ok(); }

private:
    void fail(std::string msg) { report_.violations.push_back(std::move(msg)); }

    node::ParallelCluster& cluster_;
    OracleReport report_;
};

/// The standard Theorem-1 bundle: quiescent, no in-flight packets, every
/// live view exact.
OracleReport check_theorem1(node::ParallelCluster& cluster);

}  // namespace fastnet::fault
