#include "topo/broadcast_protocols.hpp"

#include <algorithm>

#include "common/expect.hpp"
#include "graph/algorithms.hpp"
#include "hw/anr.hpp"

namespace fastnet::topo {

const char* scheme_name(BroadcastScheme s) {
    switch (s) {
        case BroadcastScheme::kBranchingPaths: return "branching-paths";
        case BroadcastScheme::kFlooding: return "flooding";
        case BroadcastScheme::kDfsToken: return "dfs-token";
        case BroadcastScheme::kLayeredBfs: return "layered-bfs";
        case BroadcastScheme::kDirectUnicast: return "direct-unicast";
    }
    return "?";
}

BroadcastProtocol::BroadcastProtocol(const graph::Graph& g, BroadcastScheme scheme)
    : graph_(g), scheme_(scheme) {}

std::uint64_t& BroadcastProtocol::seen_round(NodeId origin) {
    for (auto& [o, round] : seen_rounds_) {
        if (o == origin) return round;
    }
    return seen_rounds_.emplace_back(origin, 0).second;
}

std::size_t BroadcastProtocol::memory_bytes() const {
    return sizeof(*this) + seen_rounds_.capacity() * sizeof(seen_rounds_[0]);
}

void BroadcastProtocol::on_start(node::Context& ctx) {
    const NodeId self = ctx.self();
    receive_time_ = ctx.now();  // the origin trivially "has" the message

    if (scheme_ == BroadcastScheme::kFlooding) {
        seen_round(self) = next_round_;
        flood(ctx, self, next_round_++, hw::kNoPort);
        dispatch_time_ = ctx.now();
        return;
    }

    const graph::RootedTree tree = graph::min_hop_tree(graph_, self);
    const hw::PortMap ports = hw::canonical_ports(graph_);
    auto plan = std::make_shared<BroadcastPlan>([&] {
        switch (scheme_) {
            case BroadcastScheme::kDfsToken: return plan_dfs_token(tree, ports);
            case BroadcastScheme::kLayeredBfs: return plan_layered_bfs(tree, ports);
            case BroadcastScheme::kDirectUnicast: return plan_direct_unicast(tree, ports);
            default: return plan_branching_paths(tree, ports);
        }
    }());

    auto msg = std::make_shared<BroadcastMessage>();
    msg->plan = plan;
    msg->origin = self;
    msg->round = next_round_++;
    dispatch_time_ = ctx.now();
    for (const hw::Route& route : plan->routes_at(self)) ctx.send(route, msg);
}

void BroadcastProtocol::on_message(node::Context& ctx, const hw::Delivery& d) {
    if (const auto* flood_msg = hw::payload_as<FloodMessage>(d)) {
        std::uint64_t& seen = seen_round(flood_msg->origin);
        if (seen >= flood_msg->round) return;  // duplicate
        seen = flood_msg->round;
        if (receive_time_ == kNever) receive_time_ = ctx.now();
        flood(ctx, flood_msg->origin, flood_msg->round, d.arrival_port());
        return;
    }
    const auto* msg = hw::payload_as<BroadcastMessage>(d);
    FASTNET_EXPECTS_MSG(msg != nullptr, "unexpected payload type");
    if (receive_time_ == kNever) receive_time_ = ctx.now();
    deliver_planned(ctx, *msg);
}

void BroadcastProtocol::deliver_planned(node::Context& ctx, const BroadcastMessage& msg) {
    // Inject every planned message that starts here — all in this one
    // system call (the model's free multi-link send).
    auto payload = std::make_shared<BroadcastMessage>(msg);
    for (const hw::Route& route : msg.plan->routes_at(ctx.self())) ctx.send(route, payload);
}

void BroadcastProtocol::flood(node::Context& ctx, NodeId origin, std::uint64_t round,
                              hw::PortId arrival_port) {
    // Classic flooding relays the *originator's* message: origin/round
    // pass through unchanged so the duplicate filter converges.
    auto msg = std::make_shared<FloodMessage>();
    msg->origin = origin;
    msg->round = round;
    for (const node::LocalLink& l : ctx.links()) {
        if (!l.active || l.port == arrival_port) continue;
        hw::AnrHeader h{hw::AnrLabel::normal(l.port), hw::AnrLabel::normal(hw::kNcuPort)};
        ctx.send(std::move(h), msg);
    }
}

BroadcastOutcome run_broadcast(const graph::Graph& g, BroadcastScheme scheme, NodeId origin,
                               node::ParallelClusterConfig config) {
    if (scheme == BroadcastScheme::kLayeredBfs) {
        // The footnote-1 scheme requires unbounded path length.
        FASTNET_EXPECTS_MSG(config.params.dmax == 0,
                            "layered-bfs needs an unbounded dmax");
    }
    node::ParallelCluster cluster(g, [&g, scheme](NodeId) {
        return std::make_unique<BroadcastProtocol>(g, scheme);
    }, config);
    cluster.start(origin, 0);
    const Tick done = cluster.run();

    BroadcastOutcome out;
    const NodeId n = cluster.node_count();
    out.received.resize(n);
    out.receive_times.resize(n, kNever);
    out.origin_dispatch = cluster.protocol_as<BroadcastProtocol>(origin).dispatch_time();
    for (NodeId u = 0; u < n; ++u) {
        const auto& p = cluster.protocol_as<BroadcastProtocol>(u);
        out.received[u] = p.received();
        out.receive_times[u] = p.receive_time();
        if (u != origin && p.received())
            out.last_receive = std::max(out.last_receive == kNever ? 0 : out.last_receive,
                                        p.receive_time());
    }
    out.all_received = std::all_of(out.received.begin(), out.received.end(),
                                   [](bool b) { return b; });
    if (out.last_receive != kNever && out.origin_dispatch != kNever)
        out.elapsed = out.last_receive - out.origin_dispatch;
    if (config.params.ncu_delay > 0)
        out.time_units = static_cast<double>(out.elapsed) /
                         static_cast<double>(config.params.ncu_delay);
    out.cost = cost::snapshot(cluster.merged_metrics(), done);
    return out;
}

}  // namespace fastnet::topo
