#include "election/election.hpp"

#include <algorithm>

#include "common/expect.hpp"
#include "graph/algorithms.hpp"

namespace fastnet::elect {

ElectionProtocol::ElectionProtocol(ElectionOptions options) : options_(options) {}

unsigned ElectionProtocol::phase() const { return floor_log2(size_); }

void ElectionProtocol::ensure_started(node::Context& ctx) {
    if (started_) return;
    started_ = true;
    tree_ = InOutTree(ctx.self());
    for (const node::LocalLink& l : ctx.links()) {
        if (!l.active) continue;
        tree_.add_out(l.neighbor, ctx.self(), l.port, l.remote_port);
    }
    size_ = 1;
    candidate_alive_ = true;
    active_ = true;
    on_tour_ = false;
}

void ElectionProtocol::on_start(node::Context& ctx) {
    if (started_) return;  // a message beat the START signal
    ensure_started(ctx);
    begin_tour(ctx);
}

void ElectionProtocol::on_message(node::Context& ctx, const hw::Delivery& d) {
    const bool fresh = !started_;
    ensure_started(ctx);
    if (const auto* tour = hw::payload_as<TourToken>(d)) {
        handle_tour_token(ctx, *tour);
        // A node woken by a visiting candidate fields its own candidate
        // too (the paper: the algorithm starts on the first message).
        // If the visit captured us this is a no-op.
        if (fresh && candidate_alive_ && active_ && !on_tour_) begin_tour(ctx);
        return;
    }
    if (const auto* ret = hw::payload_as<ReturnToken>(d)) {
        handle_return_token(ctx, *ret);
        return;
    }
    if (const auto* lead = hw::payload_as<LeaderToken>(d)) {
        known_leader_ = lead->leader;
        if (role_ != Role::kLeader) role_ = Role::kLeaderElected;
        return;
    }
    FASTNET_ENSURES_MSG(false, "unexpected payload in election");
}

hw::AnrHeader ElectionProtocol::route_back_to(const TourToken& tok) {
    // ANR(self, origin) = ANR(self, o) through our (live or frozen) INOUT
    // tree — o is IN it, by the chain invariant — spliced with the
    // carried ANR(o, origin). Both parts are linear in n.
    hw::AnrHeader h = hw::splice(tree_.route_from_root(tok.entry), tok.back);
    max_return_len_ = std::max(max_return_len_, h.size());
    // A3: a naive return would reverse-concatenate every segment the
    // tour travelled plus the original outbound route.
    max_naive_return_len_ = std::max(max_naive_return_len_, tok.naive_len + tok.back.size());
    return h;
}

void ElectionProtocol::send_home_inactive(node::Context& ctx, const TourToken& tok) {
    auto ret = std::make_shared<ReturnToken>();
    ret->origin_inc = tok.origin_inc;
    ret->captured = false;
    ctx.send(route_back_to(tok), std::move(ret));
}

void ElectionProtocol::gossip_leader(node::Context& ctx, const TourToken& tok) {
    // Crash recovery: a candidate still touring after the election ended
    // can only come from a restarted node (or a partition that healed).
    // Piggyback the outcome on the bounce so the latecomer's origin
    // learns the leader instead of staying undecided forever.
    if (known_leader_ == kNoNode || !options_.announce) return;
    auto lead = std::make_shared<LeaderToken>();
    lead->leader = known_leader_;
    ctx.send(route_back_to(tok), std::move(lead));
}

void ElectionProtocol::capture_me(node::Context& ctx, const TourToken& tok) {
    FASTNET_ENSURES_MSG(!waiting_.has_value(), "capture with a parked visitor");
    f_anr_ = route_back_to(tok);
    candidate_alive_ = false;
    active_ = false;
    on_tour_ = false;
    auto ret = std::make_shared<ReturnToken>();
    ret->origin_inc = tok.origin_inc;
    ret->captured = true;
    ret->victim = ctx.self();
    ret->victim_size = size_;
    ret->victim_tree = tree_;  // carried home; we keep our frozen copy
    ret->entry = tok.entry;
    ctx.send(*f_anr_, std::move(ret));
}

void ElectionProtocol::handle_tour_token(node::Context& ctx, const TourToken& tok) {
    if (!is_origin()) {
        // Rule (1): a limited-length climb up the virtual tree.
        if (tok.hops_used > tok.phase) {
            // Crash recovery guard: a token that entered through a domain
            // we no longer remember (our pre-capture tree died with a
            // restart) cannot be routed home. Dropping it costs the stale
            // candidate liveness, never safety.
            if (!tree_.contains(tok.entry)) return;
            send_home_inactive(ctx, tok);
            gossip_leader(ctx, tok);
            return;
        }
        TourToken fwd = tok;
        fwd.hops_used += 1;
        fwd.naive_len += f_anr_->size();  // A3: what reverse-concat would add
        ctx.send(*f_anr_, std::make_shared<TourToken>(fwd));
        return;
    }

    if (tok.origin == ctx.self()) {
        // Our own token walked home. Impossible in a crash-free run (a
        // candidate's climb never cycles), but after a crash-restart our
        // fresh 1-node domain can tour straight into the wreckage of our
        // previous life — whose F-pointers lead right back to us. Tokens
        // of the dead incarnation are simply dropped; our current one is
        // taken as an unsuccessful tour (the territory it found is stale
        // state pointing at ourselves, not a capturable domain).
        if (tok.origin_inc == ctx.incarnation() && on_tour_) {
            on_tour_ = false;
            active_ = false;
            resolve_waiter(ctx);
        }
        return;
    }
    // Crash recovery guard: every response below routes home through
    // tok.entry, which the chain invariant puts in our tree — unless the
    // token predates a crash that wiped that tree. Unroutable: drop.
    if (!tree_.contains(tok.entry)) return;
    const Level mine{size_, ctx.self()};
    if (mine > tok.level) {
        // Rule (2.1).
        send_home_inactive(ctx, tok);
        gossip_leader(ctx, tok);
        return;
    }
    // mine < tok.level.
    if (!on_tour_) {
        // Rule (2.2): local candidate is home (inactive, or fresh and not
        // yet toured) — it is captured.
        capture_me(ctx, tok);
        return;
    }
    if (!waiting_) {
        // Rule (2.3): park the visitor until our candidate's comeback.
        waiting_ = tok;
        return;
    }
    // Rule (2.4): two visitors — the lower-level one goes home inactive.
    if (waiting_->level < tok.level) {
        send_home_inactive(ctx, *waiting_);
        waiting_ = tok;
    } else {
        send_home_inactive(ctx, tok);
    }
}

void ElectionProtocol::handle_return_token(node::Context& ctx, const ReturnToken& tok) {
    // In a crash-free run a return token always finds its origin on tour.
    // With crash recovery, answers addressed to a dead incarnation (or to
    // a node that was since captured) straggle in — drop them; acting on
    // one would resurrect the dead candidate's state.
    if (!is_origin() || !on_tour_ || tok.origin_inc != ctx.incarnation()) return;
    on_tour_ = false;
    if (tok.captured) {
        // Lemma 6 statistics: a capture retires one domain; histogram by
        // the *victim's* phase (at most n / 2^p domains ever reach phase
        // p, since a node belongs to at most one domain per phase).
        const unsigned victim_phase = floor_log2(tok.victim_size);
        if (captures_by_phase_.size() <= victim_phase)
            captures_by_phase_.resize(victim_phase + 1, 0);
        captures_by_phase_[victim_phase] += 1;
        tree_.absorb(tok.victim_tree, tok.entry);
        size_ += tok.victim_size;
        max_phase_ = std::max(max_phase_, phase());
    } else {
        active_ = false;
    }
    resolve_waiter(ctx);
    if (candidate_alive_ && active_ && !on_tour_) begin_tour(ctx);
}

void ElectionProtocol::resolve_waiter(node::Context& ctx) {
    if (!waiting_) return;
    const TourToken j = *waiting_;
    waiting_.reset();
    const Level mine{size_, ctx.self()};
    if (mine > j.level) {
        // Analog of (2.1): the visitor loses against our (possibly just
        // grown) domain.
        send_home_inactive(ctx, j);
        return;
    }
    // Analog of (2.2): the visitor captures us — even if our candidate is
    // still nominally active, the comeback synchronization point is where
    // the comparison lands (rule 2.3).
    capture_me(ctx, j);
}

void ElectionProtocol::begin_tour(node::Context& ctx) {
    FASTNET_EXPECTS(is_origin() && candidate_alive_ && active_ && !on_tour_);
    const NodeId o = tree_.pick_out();
    if (o == kNoNode) {
        become_leader(ctx);
        return;
    }
    max_phase_ = std::max(max_phase_, phase());
    auto tok = std::make_shared<TourToken>();
    tok->origin = ctx.self();
    tok->origin_inc = ctx.incarnation();
    tok->level = Level{size_, ctx.self()};
    tok->phase = phase();
    tok->hops_used = 1;
    tok->entry = o;
    tok->back = tree_.route_to_root(o);
    tok->naive_len = tok->back.size();
    on_tour_ = true;
    ctx.send(tree_.route_from_root(o), std::move(tok));
}

void ElectionProtocol::become_leader(node::Context& ctx) {
    role_ = Role::kLeader;
    known_leader_ = ctx.self();
    active_ = false;
    if (!options_.announce) return;
    auto tok = std::make_shared<LeaderToken>();
    tok->leader = ctx.self();
    for (NodeId u : tree_.in_nodes()) {
        if (u == ctx.self()) continue;
        ctx.send(tree_.route_from_root(u), tok);
    }
}

ElectionOutcome run_election(const graph::Graph& g, ElectionOptions options,
                             std::vector<NodeId> initiators, node::ParallelClusterConfig config,
                             Tick stagger) {
    node::ParallelCluster cluster(g, [options](NodeId) {
        return std::make_unique<ElectionProtocol>(options);
    }, config);
    if (initiators.empty())
        for (NodeId u = 0; u < g.node_count(); ++u) initiators.push_back(u);
    Tick at = 0;
    for (NodeId u : initiators) {
        cluster.start(u, at);
        at += stagger;
    }
    const Tick done = cluster.run();

    ElectionOutcome out;
    std::uint64_t leaders = 0;
    std::uint64_t leader_domain = 0;
    out.all_decided = true;
    for (NodeId u = 0; u < g.node_count(); ++u) {
        const auto& p = cluster.protocol_as<ElectionProtocol>(u);
        if (p.role() == Role::kLeader) {
            ++leaders;
            out.leader = u;
            leader_domain = p.domain_size();
        }
        if (p.role() == Role::kUndecided) out.all_decided = false;
        const auto& caps = p.captures_by_phase();
        if (out.captures_by_phase.size() < caps.size())
            out.captures_by_phase.resize(caps.size(), 0);
        for (std::size_t i = 0; i < caps.size(); ++i) out.captures_by_phase[i] += caps[i];
        out.max_return_len = std::max(out.max_return_len, p.max_return_len());
        out.max_naive_return_len = std::max(out.max_naive_return_len, p.max_naive_return_len());
    }
    out.unique_leader = leaders == 1;
    out.cost = cost::snapshot(cluster.merged_metrics(), done);
    const std::uint64_t announce_msgs =
        (options.announce && leaders >= 1) ? leader_domain - 1 : 0;
    out.election_messages = out.cost.direct_messages - announce_msgs;
    return out;
}

}  // namespace fastnet::elect
