// The tree-based distributed computation of Section 5, runnable on the
// simulated complete graph.
//
// All n nodes hold an input value; at time 0 every node starts. Leaves
// send their value to their tree parent (one direct message over the
// complete graph); an internal node folds each arriving partial result
// into its accumulator (one NCU step per message, FIFO — the model's
// requirement) and, after hearing from all children, forwards its
// subtree's partial result. Node `root` terminates with f(I_1..I_n).
//
// The combine function must be associative and commutative (Section
// 5.1); the library ships Sum / Max / Xor / Gcd instances and the
// harness verifies the computed value against a sequential fold.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cost/metrics.hpp"
#include "graph/rooted_tree.hpp"
#include "node/parallel_cluster.hpp"

namespace fastnet::gsf {

/// Associative + commutative fold over uint64 inputs.
using Combine = std::function<std::uint64_t(std::uint64_t, std::uint64_t)>;

Combine combine_sum();
Combine combine_max();
Combine combine_xor();
Combine combine_gcd();

struct GatherSpec {
    graph::RootedTree tree;          ///< Gather tree over node ids 0..n-1.
    std::vector<std::uint64_t> inputs;  ///< I_u per node.
    Combine combine;
    /// After the root computes f, push the result back down the tree so
    /// *every* node terminates knowing f (the natural extension the
    /// paper's problem statement stops short of: it only requires node 1
    /// to know the answer).
    bool disseminate = false;
};

/// Per-node protocol.
class TreeGatherProtocol final : public node::Protocol {
public:
    const char* name() const override { return "tree_gather"; }
    /// `spec` is shared by all nodes (immutable).
    explicit TreeGatherProtocol(std::shared_ptr<const GatherSpec> spec);

    void on_start(node::Context& ctx) override;
    void on_message(node::Context& ctx, const hw::Delivery& d) override;

    bool done() const { return done_; }
    Tick done_time() const { return done_time_; }
    std::uint64_t result() const { return acc_; }
    /// Dissemination mode: whether/when this node learned the final f.
    bool knows_final() const { return knows_final_; }
    Tick final_known_time() const { return final_known_time_; }

private:
    void maybe_forward(node::Context& ctx);
    void push_down(node::Context& ctx, std::uint64_t value);

    std::shared_ptr<const GatherSpec> spec_;
    std::uint64_t acc_ = 0;
    std::size_t pending_children_ = 0;
    bool started_ = false;
    bool done_ = false;
    Tick done_time_ = kNever;
    bool knows_final_ = false;
    Tick final_known_time_ = kNever;
};

struct GatherOutcome {
    std::uint64_t result = 0;
    std::uint64_t expected = 0;  ///< Sequential fold of the inputs.
    bool correct = false;
    Tick completion = 0;         ///< Root's final NCU step time.
    /// Dissemination mode only: when the last node learned f, and
    /// whether all did.
    bool all_know_final = false;
    Tick dissemination_completion = 0;
    cost::CostReport cost;
};

/// Runs the tree-based algorithm on a complete graph of tree.size()
/// nodes with the given model parameters. Inputs default to a seeded
/// random vector when empty.
GatherOutcome run_tree_gather(const graph::RootedTree& tree, ModelParams params,
                              Combine combine = combine_sum(),
                              std::vector<std::uint64_t> inputs = {},
                              std::uint64_t seed = 7, bool disseminate = false);

}  // namespace fastnet::gsf
