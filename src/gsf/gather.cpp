#include "gsf/gather.hpp"

#include <numeric>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"

namespace fastnet::gsf {
namespace {

struct PartialResult final : hw::TypedPayload<PartialResult> {
    std::uint64_t value = 0;
};

struct FinalResult final : hw::TypedPayload<FinalResult> {
    std::uint64_t value = 0;
};

}  // namespace

Combine combine_sum() {
    return [](std::uint64_t a, std::uint64_t b) { return a + b; };
}
Combine combine_max() {
    return [](std::uint64_t a, std::uint64_t b) { return a > b ? a : b; };
}
Combine combine_xor() {
    return [](std::uint64_t a, std::uint64_t b) { return a ^ b; };
}
Combine combine_gcd() {
    return [](std::uint64_t a, std::uint64_t b) { return std::gcd(a, b); };
}

TreeGatherProtocol::TreeGatherProtocol(std::shared_ptr<const GatherSpec> spec)
    : spec_(std::move(spec)) {
    FASTNET_EXPECTS(spec_ != nullptr && spec_->combine != nullptr);
}

void TreeGatherProtocol::on_start(node::Context& ctx) {
    FASTNET_EXPECTS(!started_);
    started_ = true;
    acc_ = spec_->inputs[ctx.self()];
    pending_children_ = spec_->tree.children(ctx.self()).size();
    maybe_forward(ctx);
}

void TreeGatherProtocol::on_message(node::Context& ctx, const hw::Delivery& d) {
    if (const auto* fin = hw::payload_as<FinalResult>(d)) {
        // Downcast phase: learn f, relay to our children.
        FASTNET_EXPECTS(spec_->disseminate);
        if (knows_final_) return;
        knows_final_ = true;
        final_known_time_ = ctx.now();
        acc_ = fin->value;
        push_down(ctx, fin->value);
        return;
    }
    const auto* part = hw::payload_as<PartialResult>(d);
    FASTNET_EXPECTS_MSG(part != nullptr, "unexpected payload in gather");
    FASTNET_EXPECTS_MSG(started_ && pending_children_ > 0, "stray partial result");
    acc_ = spec_->combine(acc_, part->value);
    pending_children_ -= 1;
    maybe_forward(ctx);
}

void TreeGatherProtocol::push_down(node::Context& ctx, std::uint64_t value) {
    auto msg = std::make_shared<FinalResult>();
    msg->value = value;
    for (NodeId child : spec_->tree.children(ctx.self())) {
        hw::PortId port = hw::kNoPort;
        for (const node::LocalLink& l : ctx.links()) {
            if (l.neighbor == child) {
                port = l.port;
                break;
            }
        }
        FASTNET_ENSURES_MSG(port != hw::kNoPort, "complete graph lacks child link");
        ctx.send({hw::AnrLabel::normal(port), hw::AnrLabel::normal(hw::kNcuPort)}, msg);
    }
}

void TreeGatherProtocol::maybe_forward(node::Context& ctx) {
    if (pending_children_ > 0 || done_) return;
    done_ = true;
    done_time_ = ctx.now();
    const NodeId self = ctx.self();
    if (self == spec_->tree.root()) {
        // Final result computed here; optionally push it back down.
        knows_final_ = true;
        final_known_time_ = ctx.now();
        if (spec_->disseminate) push_down(ctx, acc_);
        return;
    }
    // One direct hop to the parent over the complete graph.
    const NodeId parent = spec_->tree.parent(self);
    hw::PortId port = hw::kNoPort;
    for (const node::LocalLink& l : ctx.links()) {
        if (l.neighbor == parent) {
            port = l.port;
            break;
        }
    }
    FASTNET_ENSURES_MSG(port != hw::kNoPort, "complete graph lacks parent link");
    auto msg = std::make_shared<PartialResult>();
    msg->value = acc_;
    ctx.send({hw::AnrLabel::normal(port), hw::AnrLabel::normal(hw::kNcuPort)},
             std::move(msg));
}

GatherOutcome run_tree_gather(const graph::RootedTree& tree, ModelParams params,
                              Combine combine, std::vector<std::uint64_t> inputs,
                              std::uint64_t seed, bool disseminate) {
    const NodeId n = tree.size();
    FASTNET_EXPECTS(n >= 1);
    FASTNET_EXPECTS_MSG(tree.node_capacity() == n, "tree ids must be dense 0..n-1");
    if (inputs.empty()) {
        Rng rng(seed);
        inputs.resize(n);
        for (auto& v : inputs) v = rng.below(1'000'000);
    }
    FASTNET_EXPECTS(inputs.size() == n);

    auto spec = std::make_shared<GatherSpec>();
    spec->tree = tree;
    spec->inputs = inputs;
    spec->combine = std::move(combine);
    spec->disseminate = disseminate;

    GatherOutcome out;
    out.expected = inputs[0];
    for (NodeId u = 1; u < n; ++u) out.expected = spec->combine(out.expected, inputs[u]);

    node::ParallelClusterConfig cfg;
    cfg.params = params;
    node::ParallelCluster cluster(graph::make_complete(n), [&spec](NodeId) {
        return std::make_unique<TreeGatherProtocol>(spec);
    }, cfg);
    cluster.start_all(0);
    const Tick done = cluster.run();

    const auto& root = cluster.protocol_as<TreeGatherProtocol>(tree.root());
    FASTNET_ENSURES_MSG(root.done(), "gather did not complete");
    out.result = root.result();
    out.correct = out.result == out.expected;
    out.completion = root.done_time();
    if (disseminate) {
        out.all_know_final = true;
        for (NodeId u = 0; u < n; ++u) {
            const auto& p = cluster.protocol_as<TreeGatherProtocol>(u);
            if (!p.knows_final() || p.result() != out.expected) out.all_know_final = false;
            if (p.final_known_time() != kNever)
                out.dissemination_completion =
                    std::max(out.dissemination_completion, p.final_known_time());
        }
    }
    out.cost = cost::snapshot(cluster.merged_metrics(), done);
    return out;
}

}  // namespace fastnet::gsf
