#include "election/ring_election.hpp"

#include "common/expect.hpp"
#include "graph/generators.hpp"

namespace fastnet::elect {
namespace {

struct CrToken final : hw::TypedPayload<CrToken> {
    NodeId origin = kNoNode;
    std::uint64_t priority = 0;
};
struct CrWinner final : hw::TypedPayload<CrWinner> {
    NodeId leader = kNoNode;
};
struct HsProbe final : hw::TypedPayload<HsProbe> {
    NodeId origin = kNoNode;
    std::uint64_t priority = 0;
    unsigned phase = 0;
    unsigned ttl = 0;
};
struct HsReply final : hw::TypedPayload<HsReply> {
    NodeId origin = kNoNode;
    unsigned phase = 0;
};
struct HsWinner final : hw::TypedPayload<HsWinner> {
    NodeId leader = kNoNode;
};

/// Port at `ctx.self()` leading to neighbor `v`.
hw::PortId port_to(node::Context& ctx, NodeId v) {
    for (const node::LocalLink& l : ctx.links())
        if (l.neighbor == v) return l.port;
    FASTNET_ENSURES_MSG(false, "ring neighbor missing");
    return hw::kNoPort;
}

hw::AnrHeader one_hop(hw::PortId p) {
    return {hw::AnrLabel::normal(p), hw::AnrLabel::normal(hw::kNcuPort)};
}

/// On a two-regular node, the port that is not `arrival`.
hw::PortId other_port(node::Context& ctx, hw::PortId arrival) {
    for (const node::LocalLink& l : ctx.links())
        if (l.port != arrival) return l.port;
    FASTNET_ENSURES_MSG(false, "ring node must have two links");
    return hw::kNoPort;
}

}  // namespace

// ---- Chang-Roberts ----------------------------------------------------

void ChangRobertsProtocol::send_cw(node::Context& ctx,
                                   std::shared_ptr<const hw::Payload> payload) {
    // Clockwise neighbor = (self + 1) mod ring size; the ring size is not
    // known locally, but the neighbor set is {self-1, self+1} (mod n), so
    // "the neighbor that is not self-1" identifies clockwise. With two
    // neighbors, pick the one that equals self+1 modulo anything: it is
    // the one different from self-1; handle the wrap nodes by explicit
    // comparison.
    const auto links = ctx.links();
    FASTNET_EXPECTS(links.size() == 2);
    const NodeId a = links[0].neighbor, b = links[1].neighbor;
    // Exactly one of a, b is self+1 (mod n): it is the smaller one unless
    // we are the wrap node (then it is node 0).
    NodeId cw;
    if (a == ctx.self() + 1 || b == ctx.self() + 1)
        cw = (a == ctx.self() + 1) ? a : b;
    else
        cw = std::min(a, b);  // wrap: neighbors are n-2(or similar) and 0
    ctx.send(one_hop(port_to(ctx, cw)), std::move(payload));
}

void ChangRobertsProtocol::on_start(node::Context& ctx) {
    if (started_) return;
    started_ = true;
    participating_ = true;
    auto tok = std::make_shared<CrToken>();
    tok->origin = ctx.self();
    tok->priority = priority_;
    send_cw(ctx, std::move(tok));
}

void ChangRobertsProtocol::on_message(node::Context& ctx, const hw::Delivery& d) {
    started_ = true;
    if (const auto* tok = hw::payload_as<CrToken>(d)) {
        if (tok->origin == ctx.self()) {
            role_ = Role::kLeader;
            known_leader_ = ctx.self();
            auto win = std::make_shared<CrWinner>();
            win->leader = ctx.self();
            send_cw(ctx, std::move(win));
            return;
        }
        if (tok->priority > priority_) {
            send_cw(ctx, d.payload);
        } else if (!participating_) {
            participating_ = true;
            auto mine = std::make_shared<CrToken>();
            mine->origin = ctx.self();
            mine->priority = priority_;
            send_cw(ctx, std::move(mine));
        }
        // else: swallow the weaker token.
        return;
    }
    if (const auto* win = hw::payload_as<CrWinner>(d)) {
        known_leader_ = win->leader;
        if (win->leader == ctx.self()) return;  // announcement lap complete
        role_ = Role::kLeaderElected;
        send_cw(ctx, d.payload);
        return;
    }
    FASTNET_ENSURES_MSG(false, "unexpected payload in Chang-Roberts");
}

// ---- Hirschberg-Sinclair ------------------------------------------------

void HirschbergSinclairProtocol::launch_phase(node::Context& ctx) {
    replies_pending_ = 2;
    auto probe = std::make_shared<HsProbe>();
    probe->origin = ctx.self();
    probe->priority = priority_;
    probe->phase = phase_;
    probe->ttl = 1u << phase_;
    const auto links = ctx.links();
    FASTNET_EXPECTS(links.size() == 2);
    ctx.send(one_hop(links[0].port), probe);
    ctx.send(one_hop(links[1].port), probe);
}

void HirschbergSinclairProtocol::relay(node::Context& ctx, hw::PortId away_from,
                                       std::shared_ptr<const hw::Payload> p) {
    ctx.send(one_hop(other_port(ctx, away_from)), std::move(p));
}

void HirschbergSinclairProtocol::on_start(node::Context& ctx) {
    if (started_) return;
    started_ = true;
    candidate_ = true;
    phase_ = 0;
    launch_phase(ctx);
}

void HirschbergSinclairProtocol::on_message(node::Context& ctx, const hw::Delivery& d) {
    if (!started_) {
        // Late riser: field a candidacy as well (keeps the algorithm
        // correct when only a subset starts spontaneously).
        started_ = true;
        candidate_ = true;
        phase_ = 0;
        launch_phase(ctx);
    }
    const hw::PortId in = d.arrival_port();
    if (const auto* probe = hw::payload_as<HsProbe>(d)) {
        if (probe->origin == ctx.self()) {
            // Circumnavigated: we win.
            role_ = Role::kLeader;
            known_leader_ = ctx.self();
            auto win = std::make_shared<HsWinner>();
            win->leader = ctx.self();
            relay(ctx, in, std::move(win));
            return;
        }
        if (probe->priority < priority_) return;  // our priority dominates: swallow
        if (probe->ttl > 1) {
            auto fwd = std::make_shared<HsProbe>(*probe);
            fwd->ttl -= 1;
            relay(ctx, in, std::move(fwd));
        } else {
            // Turnaround point: confirm the probe survived its radius.
            auto rep = std::make_shared<HsReply>();
            rep->origin = probe->origin;
            rep->phase = probe->phase;
            ctx.send(one_hop(in), std::move(rep));
        }
        return;
    }
    if (const auto* rep = hw::payload_as<HsReply>(d)) {
        if (rep->origin != ctx.self()) {
            relay(ctx, in, d.payload);
            return;
        }
        if (rep->phase != phase_ || replies_pending_ == 0) return;  // stale
        if (--replies_pending_ == 0) {
            phase_ += 1;
            launch_phase(ctx);
        }
        return;
    }
    if (const auto* win = hw::payload_as<HsWinner>(d)) {
        known_leader_ = win->leader;
        if (win->leader == ctx.self()) return;
        role_ = Role::kLeaderElected;
        relay(ctx, in, d.payload);
        return;
    }
    FASTNET_ENSURES_MSG(false, "unexpected payload in Hirschberg-Sinclair");
}

// ---- harnesses ----------------------------------------------------------

namespace {

template <typename Protocol>
ElectionOutcome run_ring(NodeId n, node::ParallelClusterConfig config,
                         node::ProtocolFactory factory) {
    FASTNET_EXPECTS(n >= 3);
    node::ParallelCluster cluster(graph::make_cycle(n), std::move(factory), config);
    cluster.start_all(0);
    const Tick done = cluster.run();
    ElectionOutcome out;
    std::uint64_t leaders = 0;
    out.all_decided = true;
    for (NodeId u = 0; u < n; ++u) {
        const auto& p = cluster.template protocol_as<Protocol>(u);
        if (p.role() == Role::kLeader) {
            ++leaders;
            out.leader = u;
        }
        if (p.role() == Role::kUndecided) out.all_decided = false;
    }
    out.unique_leader = leaders == 1;
    out.cost = cost::snapshot(cluster.merged_metrics(), done);
    // The announcement lap is exactly n messages on the ring.
    out.election_messages = out.cost.direct_messages - n;
    return out;
}

}  // namespace

ElectionOutcome run_chang_roberts(NodeId n, node::ParallelClusterConfig config,
                                  std::uint64_t priority_seed) {
    std::vector<std::uint64_t> priorities(n);
    for (NodeId u = 0; u < n; ++u) priorities[u] = u;
    if (priority_seed != 0) {
        Rng rng(priority_seed);
        rng.shuffle(priorities);
    }
    return run_ring<ChangRobertsProtocol>(n, config, [priorities](NodeId u) {
        return std::make_unique<ChangRobertsProtocol>(priorities[u]);
    });
}

ElectionOutcome run_hirschberg_sinclair(NodeId n, node::ParallelClusterConfig config,
                                         std::uint64_t priority_seed) {
    std::vector<std::uint64_t> priorities(n);
    for (NodeId u = 0; u < n; ++u) priorities[u] = u;
    if (priority_seed != 0) {
        Rng rng(priority_seed ^ 0xabcdefULL);
        rng.shuffle(priorities);
    }
    return run_ring<HirschbergSinclairProtocol>(n, config, [priorities](NodeId u) {
        return std::make_unique<HirschbergSinclairProtocol>(priorities[u]);
    });
}

}  // namespace fastnet::elect
