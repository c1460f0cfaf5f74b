// Traditional leader-election baselines on a ring, accounted under the
// new measure.
//
// Both algorithms use only neighbor-to-neighbor messages, so every hop
// is a system call: the hardware's relaying power buys nothing. This is
// the Section 4 observation that "a straightforward application of the
// traditional techniques to the new model would result in system call
// complexity of Omega(n log n)":
//   * Chang-Roberts — unidirectional id race: O(n log n) expected,
//     O(n^2) worst-case messages;
//   * Hirschberg-Sinclair — doubling probes both ways: O(n log n)
//     worst-case messages.
// Termination: the winner circulates one final announcement lap
// (n messages), after which every node knows the leader.
#pragma once

#include <cstdint>

#include "cost/metrics.hpp"
#include "election/election.hpp"
#include "graph/graph.hpp"
#include "node/parallel_cluster.hpp"

namespace fastnet::elect {

/// Chang-Roberts on a directed ring (clockwise = next node id). Nodes
/// compete with a `priority` (default: the node id). Random priorities
/// give the O(n log n) expected message count; priorities sorted along
/// the ring give the 2n-1 best case, reverse-sorted the n(n+1)/2-ish
/// worst case.
class ChangRobertsProtocol final : public node::Protocol {
public:
    const char* name() const override { return "chang_roberts"; }
    explicit ChangRobertsProtocol(std::uint64_t priority) : priority_(priority) {}

    void on_start(node::Context& ctx) override;
    void on_message(node::Context& ctx, const hw::Delivery& d) override;
    std::size_t memory_bytes() const override { return sizeof(*this); }

    Role role() const { return role_; }
    NodeId known_leader() const { return known_leader_; }

private:
    void send_cw(node::Context& ctx, std::shared_ptr<const hw::Payload> payload);

    std::uint64_t priority_;
    bool started_ = false;
    bool participating_ = false;
    Role role_ = Role::kUndecided;
    NodeId known_leader_ = kNoNode;
};

/// Hirschberg-Sinclair on a bidirectional ring. As with Chang-Roberts,
/// nodes compete with a `priority`; sorted priorities are the (atypical)
/// best case, random priorities exhibit the Theta(n log n) behaviour.
class HirschbergSinclairProtocol final : public node::Protocol {
public:
    const char* name() const override { return "hirschberg_sinclair"; }
    explicit HirschbergSinclairProtocol(std::uint64_t priority) : priority_(priority) {}

    void on_start(node::Context& ctx) override;
    void on_message(node::Context& ctx, const hw::Delivery& d) override;
    std::size_t memory_bytes() const override { return sizeof(*this); }

    Role role() const { return role_; }
    NodeId known_leader() const { return known_leader_; }

private:
    void launch_phase(node::Context& ctx);
    void relay(node::Context& ctx, hw::PortId away_from, std::shared_ptr<const hw::Payload> p);

    std::uint64_t priority_;
    bool started_ = false;
    bool candidate_ = false;
    Role role_ = Role::kUndecided;
    NodeId known_leader_ = kNoNode;
    unsigned phase_ = 0;
    unsigned replies_pending_ = 0;
};

/// Runs a baseline election on a cycle of n nodes; reports like
/// run_election (election_messages excludes the final announcement lap).
/// `priority_seed` for Chang-Roberts: 0 = priorities equal node ids
/// (best case on this ring); otherwise a random permutation (average
/// case, O(n log n) expected messages).
ElectionOutcome run_chang_roberts(NodeId n, node::ParallelClusterConfig config = {},
                                  std::uint64_t priority_seed = 0);
ElectionOutcome run_hirschberg_sinclair(NodeId n, node::ParallelClusterConfig config = {},
                                        std::uint64_t priority_seed = 0);

}  // namespace fastnet::elect
