// The leader election algorithm of Section 4 (Cidon-Gopal-Kutten).
//
// Every node starts as the origin of its own one-node domain with an
// active candidate. An active candidate repeatedly *tours*: it travels
// to an OUT-neighbor o of its domain, then climbs the virtual tree of
// F-pointers (each climb is one direct message — one system call — that
// may cross many hardware hops), for at most PH+1 direct messages where
// PH = floor(log2 |domain|). Reaching an origin it compares levels
// L = (size, id):
//   (2.1) higher-level origin          -> return home, become inactive;
//   (2.2) lower level, local inactive  -> capture: plant F_v = ANR(v,i),
//         carry v's INOUT tree home, merge, tour again;
//   (2.3) lower level, local on tour   -> wait for the comeback, then act;
//   (2.4) lower level, someone waiting -> lower of the two visitors
//         returns home inactive.
// A candidate whose OUT set empties owns every node: it is the leader.
//
// Complexity (Theorems 4-5): exactly one leader; at most 6n direct
// messages (system calls); O(n) time. The optional announcement phase
// (telling every node the election is over) costs n-1 further messages.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cost/metrics.hpp"
#include "election/inout_tree.hpp"
#include "graph/graph.hpp"
#include "node/parallel_cluster.hpp"

namespace fastnet::elect {

/// Candidate level: compared lexicographically (size first, id breaks
/// ties), so levels of distinct candidates never compare equal.
struct Level {
    std::uint64_t size = 0;
    NodeId id = kNoNode;
    friend auto operator<=>(const Level&, const Level&) = default;
};

enum class Role { kUndecided, kLeader, kLeaderElected };

struct ElectionOptions {
    /// After winning, the leader notifies every node (n-1 extra direct
    /// messages). Disable to measure the bare 6n election cost.
    bool announce = true;
};

/// --- token payloads ---------------------------------------------------

/// A candidate on tour (or climbing the virtual tree).
struct TourToken final : hw::TypedPayload<TourToken> {
    NodeId origin = kNoNode;        ///< The candidate's origin node i.
    /// The origin's incarnation when the tour left (crash recovery: a
    /// restarted origin ignores its dead life's tokens, see
    /// Context::incarnation).
    std::uint64_t origin_inc = 0;
    Level level;                    ///< L_i at tour start.
    unsigned phase = 0;             ///< PH_i at tour start.
    unsigned hops_used = 0;         ///< Direct messages spent so far.
    NodeId entry = kNoNode;         ///< o — the OUT node the tour entered.
    hw::AnrHeader back;             ///< ANR(o, i): from o home to i.
    /// Ablation A3 bookkeeping: the header length a *naive* return route
    /// (reverse concatenation of every segment travelled) would have.
    /// The paper rejects that scheme because "the length of the latter
    /// may be more than n"; we measure by how much.
    std::size_t naive_len = 0;
};

/// A candidate returning home.
struct ReturnToken final : hw::TypedPayload<ReturnToken> {
    /// Copied from the answered TourToken: the returning candidate's
    /// incarnation. A restarted origin drops returns addressed to its
    /// previous life.
    std::uint64_t origin_inc = 0;
    bool captured = false;          ///< False: unsuccessful tour -> inactive.
    NodeId victim = kNoNode;        ///< The captured origin v.
    std::uint64_t victim_size = 0;  ///< S_v.
    InOutTree victim_tree;          ///< v's INOUT tree (carried home).
    NodeId entry = kNoNode;         ///< o — graft point for the merge.
};

/// Leader announcement.
struct LeaderToken final : hw::TypedPayload<LeaderToken> {
    NodeId leader = kNoNode;
};

/// --- the per-node protocol --------------------------------------------

class ElectionProtocol final : public node::Protocol {
public:
    const char* name() const override { return "election"; }
    explicit ElectionProtocol(ElectionOptions options = {});

    void on_start(node::Context& ctx) override;
    void on_message(node::Context& ctx, const hw::Delivery& d) override;
    std::size_t memory_bytes() const override {
        return sizeof(*this) + tree_.memory_bytes() - sizeof(tree_) +
               captures_by_phase_.capacity() * sizeof(std::uint64_t);
    }

    // ---- observation ---------------------------------------------------
    Role role() const { return role_; }
    bool is_origin() const { return !f_anr_.has_value(); }
    std::uint64_t domain_size() const { return size_; }
    unsigned phase() const;
    NodeId known_leader() const { return known_leader_; }
    const InOutTree& inout() const { return tree_; }
    /// Captures performed by this node's candidate, histogrammed by the
    /// *victim domain's* phase (Lemma 6: at most n / 2^p entries at p).
    const std::vector<std::uint64_t>& captures_by_phase() const { return captures_by_phase_; }
    /// A3: longest return route actually used (INOUT-tree splice) and
    /// the length a naive reverse-concatenation would have needed.
    std::size_t max_return_len() const { return max_return_len_; }
    std::size_t max_naive_return_len() const { return max_naive_return_len_; }

private:
    void ensure_started(node::Context& ctx);
    void begin_tour(node::Context& ctx);
    void become_leader(node::Context& ctx);
    void handle_tour_token(node::Context& ctx, const TourToken& tok);
    void handle_return_token(node::Context& ctx, const ReturnToken& tok);
    void resolve_waiter(node::Context& ctx);
    void capture_me(node::Context& ctx, const TourToken& tok);
    void send_home_inactive(node::Context& ctx, const TourToken& tok);
    void gossip_leader(node::Context& ctx, const TourToken& tok);
    hw::AnrHeader route_back_to(const TourToken& tok);

    ElectionOptions options_;
    bool started_ = false;
    Role role_ = Role::kUndecided;
    NodeId known_leader_ = kNoNode;

    // Domain / candidate state (meaningful while this node is an origin).
    InOutTree tree_;
    std::uint64_t size_ = 1;
    bool candidate_alive_ = false;  ///< False once captured (domain absorbed).
    bool active_ = false;           ///< Inactive candidates stay home.
    bool on_tour_ = false;
    std::optional<TourToken> waiting_;  ///< A visitor parked here (rule 2.3).
    std::optional<hw::AnrHeader> f_anr_;  ///< F pointer: route to capturer's origin.

    std::vector<std::uint64_t> captures_by_phase_;
    std::size_t max_return_len_ = 0;
    std::size_t max_naive_return_len_ = 0;
};

/// --- harness ------------------------------------------------------------

struct ElectionOutcome {
    NodeId leader = kNoNode;
    bool unique_leader = false;      ///< Exactly one kLeader among started nodes.
    bool all_decided = false;        ///< Every node knows the outcome (announce on).
    cost::CostReport cost;
    std::uint64_t election_messages = 0;  ///< Direct messages excluding announcement.
    std::vector<std::uint64_t> captures_by_phase;  ///< Aggregated (Lemma 6).
    std::size_t max_return_len = 0;        ///< A3: actual ANR lengths used.
    std::size_t max_naive_return_len = 0;  ///< A3: naive reverse-concat lengths.
};

// ---- predicted bounds (Theorems 4-5, Lemma 6) ---------------------------
// Derived by the auditor (obs/audit.hpp) for a concrete run.

/// Theorem 5: the election spends at most 6n direct messages.
constexpr std::uint64_t theorem5_call_bound(std::uint64_t n) { return 6 * n; }

/// The optional announcement phase costs n-1 further direct messages.
constexpr std::uint64_t announce_call_bound(std::uint64_t n) {
    return n >= 1 ? n - 1 : 0;
}

/// Lemma 6: at most n / 2^p candidates ever reach phase p, so at most
/// that many captures can be performed by phase-p candidates.
constexpr std::uint64_t lemma6_capture_bound(std::uint64_t n, unsigned phase) {
    return phase >= 64 ? 0 : n >> phase;
}

/// Runs an election over `g`; `initiators` lists the spontaneously
/// starting nodes (empty = all), started at staggered times when
/// `stagger` > 0.
ElectionOutcome run_election(const graph::Graph& g, ElectionOptions options = {},
                             std::vector<NodeId> initiators = {},
                             node::ParallelClusterConfig config = {}, Tick stagger = 0);

}  // namespace fastnet::elect
