#include "paris/call_setup.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace fastnet::paris {
namespace {

/// The single setup packet. Carries the full route specification (node
/// path plus the per-hop port ids in both directions) so that every
/// on-path NCU can derive its own routes to either endpoint.
struct SetupMsg final : hw::TypedPayload<SetupMsg> {
    CallId id;
    NodeId source = kNoNode;
    NodeId destination = kNoNode;
    std::uint32_t demand = 0;
    std::vector<NodeId> path;          ///< path[0] = source, back() = destination.
    std::vector<hw::PortId> fwd_ports; ///< at path[k] toward path[k+1].
    std::vector<hw::PortId> rev_ports; ///< at path[k+1] toward path[k].
    bool selective_copy = true;        ///< Ablation A5 (see options).
};

struct AcceptMsg final : hw::TypedPayload<AcceptMsg> {
    CallId id;
};

struct RejectMsg final : hw::TypedPayload<RejectMsg> {
    CallId id;
    NodeId bottleneck = kNoNode;
};

struct TeardownMsg final : hw::TypedPayload<TeardownMsg> {
    CallId id;
    bool due_to_reject = false;
    bool relay = false;  ///< Hop-by-hop mode: receiver re-sends onward.
};

struct DisconnectMsg final : hw::TypedPayload<DisconnectMsg> {
    CallId id;
};

/// Lease renewal for an active call: one copy packet from the source
/// that re-arms every on-path reservation's expiry (selective-copy mode
/// only — hop-by-hop deployments must keep leases off).
struct RefreshMsg final : hw::TypedPayload<RefreshMsg> {
    CallId id;
};

/// Route from path[i] to the destination; copies at interior nodes so a
/// teardown/disconnect riding it releases every hop in one message.
hw::AnrHeader route_to_destination(const std::vector<NodeId>& path,
                                   const std::vector<hw::PortId>& fwd_ports,
                                   std::size_t i, bool copies) {
    hw::AnrHeader h;
    for (std::size_t k = i; k + 1 < path.size(); ++k) {
        const bool interior = copies && k > i;
        h.push_back(interior ? hw::AnrLabel::copy(fwd_ports[k])
                             : hw::AnrLabel::normal(fwd_ports[k]));
    }
    h.push_back(hw::AnrLabel::normal(hw::kNcuPort));
    return h;
}

/// Route from path[i] back to the source, same copy convention.
hw::AnrHeader route_to_source(const SetupMsg& m, std::size_t i, bool copies) {
    hw::AnrHeader h;
    for (std::size_t k = i; k >= 1; --k) {
        const bool interior = copies && k < i;
        h.push_back(interior ? hw::AnrLabel::copy(m.rev_ports[k - 1])
                             : hw::AnrLabel::normal(m.rev_ports[k - 1]));
    }
    h.push_back(hw::AnrLabel::normal(hw::kNcuPort));
    return h;
}

/// One normal hop from path[i] to path[i+1], into the NCU there.
hw::AnrHeader one_hop_forward(const SetupMsg& m, std::size_t i) {
    return {hw::AnrLabel::normal(m.fwd_ports[i]), hw::AnrLabel::normal(hw::kNcuPort)};
}

// Timer-cookie layout: kind | slot | attempt | generation. The
// generation check makes a cookie from a recycled slot inert; the
// attempt check makes a setup/retry timer from a superseded attempt
// inert (a reject can resolve attempt k while its timer is in flight).
constexpr std::uint64_t kCookieKindBits = 4;
constexpr std::uint64_t kCookieSlotBits = 28;
constexpr std::uint64_t kCookieAttemptBits = 8;
constexpr std::uint64_t cookie_kind(std::uint64_t c) { return c & 0xF; }
constexpr std::uint64_t cookie_slot(std::uint64_t c) {
    return (c >> kCookieKindBits) & ((1ULL << kCookieSlotBits) - 1);
}
constexpr std::uint64_t cookie_attempt(std::uint64_t c) {
    return (c >> (kCookieKindBits + kCookieSlotBits)) & ((1ULL << kCookieAttemptBits) - 1);
}
constexpr std::uint64_t cookie_gen(std::uint64_t c) {
    return c >> (kCookieKindBits + kCookieSlotBits + kCookieAttemptBits);
}

}  // namespace

const char* call_state_name(CallState s) {
    switch (s) {
        case CallState::kIdle: return "idle";
        case CallState::kSettingUp: return "setting-up";
        case CallState::kReserved: return "reserved";
        case CallState::kActive: return "active";
        case CallState::kBackoff: return "backoff";
        case CallState::kRejected: return "rejected";
        case CallState::kReleased: return "released";
        case CallState::kFailed: return "failed";
    }
    return "?";
}

const char* call_event_name(CallEvent e) {
    switch (e) {
        case CallEvent::kOffered: return "offered";
        case CallEvent::kShed: return "shed";
        case CallEvent::kPlaced: return "placed";
        case CallEvent::kReserved: return "reserved";
        case CallEvent::kRejected: return "rejected";
        case CallEvent::kAccepted: return "accepted";
        case CallEvent::kActive: return "active";
        case CallEvent::kTimeout: return "timeout";
        case CallEvent::kRetry: return "retry";
        case CallEvent::kReleased: return "released";
        case CallEvent::kDisconnect: return "disconnect";
        case CallEvent::kExpired: return "expired";
        case CallEvent::kBlocked: return "blocked";
        case CallEvent::kRefresh: return "refresh";
    }
    return "?";
}

CallAgentProtocol::CallAgentProtocol(const graph::Graph& g, CallAgentOptions options)
    : graph_(g), options_(std::move(options)) {}

CallAgentProtocol::CallAgentProtocol(std::shared_ptr<const graph::Graph> g,
                                     CallAgentOptions options)
    : graph_owner_(std::move(g)), graph_(*graph_owner_), options_(std::move(options)) {}

// ---- bookkeeping primitives ----------------------------------------------

std::uint32_t CallAgentProtocol::alloc_slot() {
    if (!free_slots_.empty()) {
        const std::uint32_t slot = free_slots_.back();
        free_slots_.pop_back();
        slab_[slot] = CallRecord{};
        return slot;
    }
    FASTNET_ENSURES_MSG(slab_.size() < (1ULL << 28), "call slab exceeds cookie range");
    slab_.emplace_back();
    slot_gen_.push_back(0);
    return static_cast<std::uint32_t>(slab_.size() - 1);
}

CallRecord* CallAgentProtocol::find_record(CallId id, std::uint32_t* slot_out) {
    const std::uint32_t* p = index_.find(call_key(id));
    if (p == nullptr) return nullptr;
    const std::uint32_t slot = *p - 1;
    if (slot_out) *slot_out = slot;
    return &slab_[slot];
}

std::uint64_t CallAgentProtocol::slot_cookie(CookieKind kind, std::uint32_t slot) const {
    return static_cast<std::uint64_t>(kind) |
           (static_cast<std::uint64_t>(slot) << kCookieKindBits) |
           (static_cast<std::uint64_t>(slab_[slot].attempts)
            << (kCookieKindBits + kCookieSlotBits)) |
           (static_cast<std::uint64_t>(slot_gen_[slot] & 0xffffff)
            << (kCookieKindBits + kCookieSlotBits + kCookieAttemptBits));
}

CallRecord* CallAgentProtocol::cookie_record(std::uint64_t cookie, std::uint32_t* slot_out) {
    const std::uint64_t slot = cookie_slot(cookie);
    if (slot >= slab_.size()) return nullptr;
    if (cookie_gen(cookie) != (slot_gen_[slot] & 0xffffff)) return nullptr;
    if (slot_out) *slot_out = static_cast<std::uint32_t>(slot);
    return &slab_[slot];
}

CallId CallAgentProtocol::fresh_id(node::Context& ctx) {
    // The incarnation rides the sequence's high bits: a restarted source
    // can never mint an id that a transit node still has a record for.
    return CallId{ctx.self(), (ctx.incarnation() << 24) | next_seq_++};
}

void CallAgentProtocol::note(node::Context& ctx, const CallRecord& rec, CallEvent e) {
    ctx.record(sim::TraceKind::kCallEvent, call_key(rec.id),
               static_cast<std::uint64_t>(e), rec.attempts);
}

CallState CallAgentProtocol::state_of(CallId id) const {
    const std::uint32_t* p = index_.find(call_key(id));
    return p == nullptr ? CallState::kIdle : slab_[*p - 1].state;
}

std::vector<CallRecord> CallAgentProtocol::call_records() const {
    std::vector<CallRecord> out;
    out.reserve(index_.size());
    for (const auto& e : index_.raw_entries())
        if (e.occupied) out.push_back(slab_[e.value - 1]);
    std::sort(out.begin(), out.end(),
              [](const CallRecord& a, const CallRecord& b) { return a.id < b.id; });
    return out;
}

std::uint32_t CallAgentProtocol::free_capacity(EdgeId edge) const {
    const std::uint32_t* used = reserved_.find(edge);
    return options_.link_capacity - (used == nullptr ? 0 : *used);
}

std::vector<std::pair<EdgeId, std::uint32_t>> CallAgentProtocol::reserved_entries() const {
    std::vector<std::pair<EdgeId, std::uint32_t>> out;
    for (const auto& e : reserved_.raw_entries())
        if (e.occupied && e.value > 0)
            out.emplace_back(static_cast<EdgeId>(e.key), e.value);
    std::sort(out.begin(), out.end());
    return out;
}

bool CallAgentProtocol::reserve(EdgeId edge, std::uint32_t demand) {
    if (free_capacity(edge) < demand) return false;
    reserved_[edge] += demand;
    return true;
}

void CallAgentProtocol::release_local(CallRecord& rec, CallState final_state) {
    if (rec.reserved_edge != kNoEdge) {
        std::uint32_t* held = reserved_.find(rec.reserved_edge);
        FASTNET_ENSURES(held != nullptr && *held >= rec.demand);
        *held -= rec.demand;
        rec.reserved_edge = kNoEdge;
    }
    rec.state = final_state;
}

void CallAgentProtocol::finish_record(std::uint32_t slot) {
    CallRecord& rec = slab_[slot];
    FASTNET_EXPECTS(call_state_terminal(rec.state));
    FASTNET_EXPECTS(live_records_ > 0);
    --live_records_;
    if (options_.retain_terminal) return;  // keep queryable via state_of
    index_.erase(call_key(rec.id));
    ++slot_gen_[slot];  // pending cookies for this slot go inert
    slab_[slot] = CallRecord{};
    free_slots_.push_back(slot);
}

const CallAgentProtocol::Route* CallAgentProtocol::route_to(NodeId self,
                                                            NodeId destination) {
    if (const std::uint32_t* p = route_index_.find(destination))
        return *p == 0 ? nullptr : &routes_[*p - 1];
    // Routes come from the node's (converged) topology knowledge: one
    // min-hop BFS, cached — the topology graph is static; reacting to
    // link-state churn is the routing layer's job, not the call agent's
    // (legacy behaviour: retries re-walk the same path until the link
    // heals or the budget runs out).
    if (!bfs_) {
        bfs_ = std::make_unique<graph::BfsResult>(graph::bfs(graph_, self));
        ports_ = hw::canonical_ports(graph_);
    }
    if (bfs_->dist[destination] == graph::BfsResult::kUnreached) {
        route_index_[destination] = 0;
        return nullptr;
    }
    Route rt;
    for (NodeId v = destination; v != kNoNode; v = bfs_->parent[v]) rt.path.push_back(v);
    std::reverse(rt.path.begin(), rt.path.end());
    for (std::size_t k = 0; k + 1 < rt.path.size(); ++k) {
        rt.fwd_ports.push_back(ports_(rt.path[k], rt.path[k + 1]));
        rt.rev_ports.push_back(ports_(rt.path[k + 1], rt.path[k]));
    }
    routes_.push_back(std::move(rt));
    route_index_[destination] = static_cast<std::uint32_t>(routes_.size());
    return &routes_.back();
}

// ---- lifecycle -----------------------------------------------------------

void CallAgentProtocol::on_start(node::Context& ctx) {
    for (std::size_t i = 0; i < options_.requests.size(); ++i)
        ctx.set_timer(options_.requests[i].at,
                      kCookieRequest | (static_cast<std::uint64_t>(i) << kCookieKindBits));
    const WorkloadSpec& w = options_.workload;
    if (w.enabled()) {
        const Tick delay = w.first_at > ctx.now() ? w.first_at - ctx.now() : 0;
        ctx.set_timer(delay, kCookieArrival);
    }
}

void CallAgentProtocol::on_restart(node::Context& ctx) {
    // A crash wiped every record and reservation this node held (the
    // downstream leases of its calls expire on their own). Scripted
    // requests are not replayed — they were one-shots relative to the
    // original start — but an open-loop generator resumes immediately:
    // offered load does not care that the node rebooted.
    const WorkloadSpec& w = options_.workload;
    if (w.enabled() && ctx.now() <= w.until) ctx.set_timer(0, kCookieArrival);
}

// ---- admission and arrivals ----------------------------------------------

bool CallAgentProtocol::admit(node::Context& ctx) {
    if (options_.shed_above_records != 0 && live_records_ >= options_.shed_above_records)
        return false;
    if (options_.max_inflight != 0 && inflight_setups_ >= options_.max_inflight)
        return false;
    if (options_.bucket_rate_num != 0) {
        // Integer token bucket with remainder carry: tokens accrue at
        // exactly rate_num/rate_den per tick, capped at bucket_burst.
        const Tick now = ctx.now();
        if (!bucket_primed_) {
            bucket_primed_ = true;
            bucket_tokens_ = options_.bucket_burst;
            bucket_refilled_at_ = now;
        } else if (now > bucket_refilled_at_) {
            const std::uint64_t accrued =
                bucket_carry_ + static_cast<std::uint64_t>(now - bucket_refilled_at_) *
                                    options_.bucket_rate_num;
            const Tick den = options_.bucket_rate_den > 0 ? options_.bucket_rate_den : 1;
            bucket_tokens_ += accrued / static_cast<std::uint64_t>(den);
            bucket_carry_ = accrued % static_cast<std::uint64_t>(den);
            if (bucket_tokens_ > options_.bucket_burst) {
                bucket_tokens_ = options_.bucket_burst;
                bucket_carry_ = 0;
            }
            bucket_refilled_at_ = now;
        }
        if (bucket_tokens_ == 0) return false;
        --bucket_tokens_;
    }
    return true;
}

void CallAgentProtocol::arrival(node::Context& ctx, const CallRequest& req) {
    const NodeId self = ctx.self();
    FASTNET_EXPECTS_MSG(req.destination != self, "call to self");
    FASTNET_EXPECTS(req.destination < graph_.node_count());

    ++stats_.offered;
    const CallId id = fresh_id(ctx);
    ctx.record(sim::TraceKind::kCallEvent, call_key(id),
               static_cast<std::uint64_t>(CallEvent::kOffered), 0);

    if (!admit(ctx)) {
        ++stats_.shed;
        ctx.record(sim::TraceKind::kCallEvent, call_key(id),
                   static_cast<std::uint64_t>(CallEvent::kShed), 0);
        return;
    }
    if (route_to(self, req.destination) == nullptr) {
        // Unreachable: rejected locally, no record (legacy behaviour).
        calls_rejected_ += 1;
        ++stats_.blocked;
        ctx.record(sim::TraceKind::kCallEvent, call_key(id),
                   static_cast<std::uint64_t>(CallEvent::kBlocked), 0);
        return;
    }

    const std::uint32_t slot = alloc_slot();
    CallRecord& rec = slab_[slot];
    rec.id = id;
    rec.source = self;
    rec.destination = req.destination;
    rec.demand = req.demand;
    rec.requested_at = ctx.now();
    rec.hold_time = req.hold_time;
    index_[call_key(id)] = slot + 1;
    ++live_records_;
    attempt_setup(ctx, slot);
}

void CallAgentProtocol::attempt_setup(node::Context& ctx, std::uint32_t slot) {
    CallRecord& rec = slab_[slot];
    if (rec.attempts < 255) ++rec.attempts;
    ++stats_.placed;
    if (rec.attempts > 1) {
        // Re-key under a fresh wire id so a straggler ACCEPT or REJECT
        // from the abandoned attempt can never resolve this one.
        ++stats_.retries;
        index_.erase(call_key(rec.id));
        rec.id = fresh_id(ctx);
        index_[call_key(rec.id)] = slot + 1;
    }

    const Route* rt = route_to(ctx.self(), rec.destination);
    FASTNET_ENSURES(rt != nullptr);  // reachability checked at arrival

    auto msg = std::make_shared<SetupMsg>();
    msg->id = rec.id;
    msg->source = rec.source;
    msg->destination = rec.destination;
    msg->demand = rec.demand;
    msg->path = rt->path;
    msg->fwd_ports = rt->fwd_ports;
    msg->rev_ports = rt->rev_ports;
    msg->selective_copy = options_.selective_copy;

    rec.to_destination =
        route_to_destination(rt->path, rt->fwd_ports, 0, options_.selective_copy);
    rec.to_source = {};  // we are the source

    const EdgeId out = graph_.find_edge(rt->path[0], rt->path[1]);
    if (options_.setup_timeout > 0 || options_.max_retries > 0) {
        // Don't launch into a first hop the data-link layer already
        // reports down — that setup can only time out. Transient, so it
        // burns a retry rather than counting as a capacity reject.
        for (const node::LocalLink& l : ctx.links()) {
            if (l.edge != out) continue;
            if (!l.active) {
                retry_or_block(ctx, slot, /*capacity_reject=*/false);
                return;
            }
            break;
        }
    }
    if (!reserve(out, rec.demand)) {
        retry_or_block(ctx, slot, /*capacity_reject=*/true);
        return;
    }
    rec.reserved_edge = out;
    rec.state = CallState::kSettingUp;
    ++inflight_setups_;
    note(ctx, rec, CallEvent::kPlaced);
    if (options_.selective_copy) {
        // One packet; copy ids fan it out to every on-path NCU at once.
        ctx.send(rec.to_destination, msg);
    } else {
        // Pre-PARIS software path: forward to the next hop only.
        ctx.send(one_hop_forward(*msg, 0), msg);
    }
    if (options_.setup_timeout > 0)
        ctx.set_timer(options_.setup_timeout, slot_cookie(kCookieSetup, slot));
}

void CallAgentProtocol::retry_or_block(node::Context& ctx, std::uint32_t slot,
                                       bool capacity_reject) {
    (void)capacity_reject;
    CallRecord& rec = slab_[slot];
    FASTNET_EXPECTS(rec.reserved_edge == kNoEdge);  // caller released
    if (rec.attempts <= options_.max_retries) {
        rec.state = CallState::kBackoff;
        note(ctx, rec, CallEvent::kRetry);
        const unsigned prior = rec.attempts > 0 ? rec.attempts - 1u : 0u;
        const unsigned shift = prior < 20u ? prior : 20u;
        Tick delay = options_.retry_backoff << shift;
        if (options_.retry_jitter > 0)
            delay += static_cast<Tick>(
                ctx.rng().below(static_cast<std::uint64_t>(options_.retry_jitter) + 1));
        if (delay < 1) delay = 1;
        ctx.set_timer(delay, slot_cookie(kCookieRetry, slot));
        return;
    }
    calls_rejected_ += 1;
    ++stats_.blocked;
    stats_.retries_per_call.add(rec.attempts > 0 ? rec.attempts - 1 : 0);
    rec.state = CallState::kRejected;
    note(ctx, rec, CallEvent::kBlocked);
    finish_record(slot);
}

void CallAgentProtocol::activate_source(node::Context& ctx, std::uint32_t slot) {
    CallRecord& rec = slab_[slot];
    FASTNET_EXPECTS(inflight_setups_ > 0);
    --inflight_setups_;
    rec.state = CallState::kActive;
    calls_active_ += 1;
    ++stats_.accepted;
    stats_.setup_latency.add(static_cast<std::uint64_t>(ctx.now() - rec.requested_at));
    stats_.retries_per_call.add(rec.attempts > 0 ? rec.attempts - 1 : 0);
    note(ctx, rec, CallEvent::kActive);
    if (rec.hold_time >= 0) ctx.set_timer(rec.hold_time, slot_cookie(kCookieHold, slot));
    if (options_.refresh_interval > 0 && options_.selective_copy)
        ctx.set_timer(options_.refresh_interval, slot_cookie(kCookieRefresh, slot));
}

void CallAgentProtocol::send_teardown(node::Context& ctx, const CallRecord& rec,
                                      bool due_to_reject) {
    auto msg = std::make_shared<TeardownMsg>();
    msg->id = rec.id;
    msg->due_to_reject = due_to_reject;
    msg->relay = !options_.selective_copy;
    if (options_.selective_copy) {
        // One copy packet releases every hop at once.
        ctx.send(rec.to_destination, msg);
    } else {
        // Hop-by-hop: next NCU releases, then re-sends onward.
        ctx.send({rec.to_destination.front(), hw::AnrLabel::normal(hw::kNcuPort)},
                 msg);
    }
}

void CallAgentProtocol::teardown(node::Context& ctx, std::uint32_t slot) {
    CallRecord& rec = slab_[slot];
    send_teardown(ctx, rec, /*due_to_reject=*/false);
    if (rec.state == CallState::kActive) calls_active_ -= 1;
    release_local(rec, CallState::kReleased);
    calls_released_ += 1;
    ++stats_.completed;
    note(ctx, rec, CallEvent::kReleased);
    finish_record(slot);
}

// ---- timers --------------------------------------------------------------

void CallAgentProtocol::on_timer(node::Context& ctx, std::uint64_t cookie) {
    switch (cookie_kind(cookie)) {
        case kCookieRequest: {
            const std::uint64_t i = cookie >> kCookieKindBits;
            FASTNET_EXPECTS(i < options_.requests.size());
            arrival(ctx, options_.requests[i]);
            return;
        }
        case kCookieArrival: {
            const WorkloadSpec& w = options_.workload;
            if (ctx.now() > w.until) return;
            Rng& rng = ctx.rng();
            CallRequest req;
            req.destination = draw_destination(rng, ctx.self(), graph_.node_count());
            req.demand = w.demand;
            req.hold_time = draw_hold(rng, w);
            arrival(ctx, req);
            const Tick gap = draw_gap(rng, w);
            if (ctx.now() + gap <= w.until) ctx.set_timer(gap, kCookieArrival);
            return;
        }
        default: break;
    }

    std::uint32_t slot = 0;
    CallRecord* rec = cookie_record(cookie, &slot);
    if (rec == nullptr) return;  // slot recycled since the timer was set
    switch (cookie_kind(cookie)) {
        case kCookieHold:
            if (rec->state == CallState::kActive && rec->source == ctx.self())
                teardown(ctx, slot);
            return;
        case kCookieSetup:
            if (rec->state != CallState::kSettingUp) return;
            if (cookie_attempt(cookie) != rec->attempts) return;  // superseded attempt
            ++stats_.timeouts;
            note(ctx, *rec, CallEvent::kTimeout);
            // REJECT-equivalent: tear the partial reservation down
            // everywhere, then retry or give up.
            send_teardown(ctx, *rec, /*due_to_reject=*/true);
            release_local(*rec, rec->state);
            FASTNET_EXPECTS(inflight_setups_ > 0);
            --inflight_setups_;
            retry_or_block(ctx, slot, /*capacity_reject=*/false);
            return;
        case kCookieRetry:
            if (rec->state != CallState::kBackoff) return;
            if (cookie_attempt(cookie) != rec->attempts) return;
            attempt_setup(ctx, slot);
            return;
        case kCookieLease: {
            // The orphan reaper: a non-source hop whose lease lapsed
            // without a refresh releases locally — the teardown that
            // should have arrived was lost.
            if (call_state_terminal(rec->state) || rec->state == CallState::kIdle) return;
            if (rec->source == ctx.self()) return;
            if (ctx.now() >= rec->lease_deadline) {
                ++stats_.reaped;
                note(ctx, *rec, CallEvent::kExpired);
                release_local(*rec, CallState::kFailed);
                finish_record(slot);
                return;
            }
            ctx.set_timer(rec->lease_deadline - ctx.now(), slot_cookie(kCookieLease, slot));
            return;
        }
        case kCookieRefresh:
            if (rec->state != CallState::kActive || rec->source != ctx.self()) return;
            {
                auto msg = std::make_shared<RefreshMsg>();
                msg->id = rec->id;
                ctx.send(rec->to_destination, msg);
                note(ctx, *rec, CallEvent::kRefresh);
                ctx.set_timer(options_.refresh_interval, slot_cookie(kCookieRefresh, slot));
            }
            return;
        default: return;
    }
}

// ---- messages ------------------------------------------------------------

void CallAgentProtocol::on_message(node::Context& ctx, const hw::Delivery& d) {
    const NodeId self = ctx.self();
    if (const auto* setup = hw::payload_as<SetupMsg>(d)) {
        if (find_record(setup->id) != nullptr) return;  // duplicate copy (dup_ppm)
        const auto it = std::find(setup->path.begin(), setup->path.end(), self);
        FASTNET_EXPECTS_MSG(it != setup->path.end(), "setup strayed off its path");
        const std::size_t i = static_cast<std::size_t>(it - setup->path.begin());

        const std::uint32_t slot = alloc_slot();
        CallRecord& rec = slab_[slot];
        rec.id = setup->id;
        rec.source = setup->source;
        rec.destination = setup->destination;
        rec.demand = setup->demand;
        rec.to_source = route_to_source(*setup, i, setup->selective_copy);
        index_[call_key(rec.id)] = slot + 1;
        ++live_records_;
        if (options_.reservation_ttl > 0) {
            rec.lease_deadline = ctx.now() + options_.reservation_ttl;
            ctx.set_timer(options_.reservation_ttl, slot_cookie(kCookieLease, slot));
        }
        if (self == setup->destination) {
            auto acc = std::make_shared<AcceptMsg>();
            acc->id = setup->id;
            ctx.send(rec.to_source, acc);
            rec.state = CallState::kActive;
            note(ctx, rec, CallEvent::kAccepted);
            return;
        }
        rec.to_destination =
            route_to_destination(setup->path, setup->fwd_ports, i, setup->selective_copy);
        const EdgeId out = graph_.find_edge(setup->path[i], setup->path[i + 1]);
        if (!reserve(out, setup->demand)) {
            rec.state = CallState::kRejected;
            auto rej = std::make_shared<RejectMsg>();
            rej->id = setup->id;
            rej->bottleneck = self;
            ctx.send(rec.to_source, rej);
            note(ctx, rec, CallEvent::kRejected);
            finish_record(slot);
            return;
        }
        rec.reserved_edge = out;
        rec.state = CallState::kReserved;
        note(ctx, rec, CallEvent::kReserved);
        if (!setup->selective_copy) {
            // Hop-by-hop mode: this NCU re-sends the setup onward.
            ctx.send(one_hop_forward(*setup, i), d.payload);
        }
        return;
    }
    if (const auto* acc = hw::payload_as<AcceptMsg>(d)) {
        std::uint32_t slot = 0;
        CallRecord* rec = find_record(acc->id, &slot);
        if (rec == nullptr) return;
        if (rec->source == self) {
            if (rec->state == CallState::kSettingUp) activate_source(ctx, slot);
            // (A reject may have arrived first; then we stay rejected.)
        } else if (rec->state == CallState::kReserved) {
            rec->state = CallState::kActive;  // intermediate copy of the accept
            if (options_.reservation_ttl > 0)
                rec->lease_deadline = ctx.now() + options_.reservation_ttl;
        }
        return;
    }
    if (const auto* rej = hw::payload_as<RejectMsg>(d)) {
        std::uint32_t slot = 0;
        CallRecord* rec = find_record(rej->id, &slot);
        if (rec == nullptr || rec->source != self) return;
        if (rec->state == CallState::kSettingUp) {
            note(ctx, *rec, CallEvent::kRejected);
            // Release the partial reservation everywhere downstream.
            send_teardown(ctx, *rec, /*due_to_reject=*/true);
            release_local(*rec, rec->state);
            FASTNET_EXPECTS(inflight_setups_ > 0);
            --inflight_setups_;
            retry_or_block(ctx, slot, /*capacity_reject=*/true);
        } else if (rec->state == CallState::kActive) {
            // The selective-copy race: the destination's copy of the
            // setup peeled off before the bottleneck's reject stopped
            // anything, so ACCEPT and REJECT both raced to us and the
            // accept won. The reject still stands — tear down. In the
            // ledger this call was accepted, then lost: failed.
            calls_active_ -= 1;
            calls_rejected_ += 1;
            ++stats_.failed;
            send_teardown(ctx, *rec, /*due_to_reject=*/true);
            release_local(*rec, CallState::kRejected);
            note(ctx, *rec, CallEvent::kRejected);
            finish_record(slot);
        }
        return;
    }
    if (const auto* td = hw::payload_as<TeardownMsg>(d)) {
        std::uint32_t slot = 0;
        CallRecord* rec = find_record(td->id, &slot);
        if (rec == nullptr) return;
        const bool was_terminal = call_state_terminal(rec->state);
        const bool had_more = td->relay && self != rec->destination &&
                              !rec->to_destination.empty() &&
                              (rec->state == CallState::kReserved ||
                               rec->state == CallState::kActive);
        if (had_more) {
            // Hop-by-hop mode: pass the teardown onward before releasing.
            hw::AnrHeader hop{rec->to_destination.front(),
                              hw::AnrLabel::normal(hw::kNcuPort)};
            ctx.send(std::move(hop), d.payload);
        }
        release_local(*rec,
                      td->due_to_reject ? CallState::kRejected : CallState::kReleased);
        if (!was_terminal) {
            note(ctx, *rec,
                 td->due_to_reject ? CallEvent::kRejected : CallEvent::kReleased);
            finish_record(slot);
        }
        return;
    }
    if (const auto* dis = hw::payload_as<DisconnectMsg>(d)) {
        std::uint32_t slot = 0;
        CallRecord* rec = find_record(dis->id, &slot);
        if (rec == nullptr) return;
        if (call_state_terminal(rec->state)) return;
        if (rec->source == self && rec->state == CallState::kSettingUp &&
            options_.max_retries > 0) {
            // The path died under our setup: transient, retry elsewhere
            // in time (the downstream side is already releasing itself).
            note(ctx, *rec, CallEvent::kDisconnect);
            release_local(*rec, rec->state);
            FASTNET_EXPECTS(inflight_setups_ > 0);
            --inflight_setups_;
            retry_or_block(ctx, slot, /*capacity_reject=*/false);
            return;
        }
        if (rec->source == self &&
            (rec->state == CallState::kActive || rec->state == CallState::kSettingUp)) {
            if (rec->state == CallState::kActive) {
                calls_active_ -= 1;
            } else {
                FASTNET_EXPECTS(inflight_setups_ > 0);
                --inflight_setups_;
            }
            calls_failed_ += 1;
            ++stats_.failed;
        }
        release_local(*rec, CallState::kFailed);
        note(ctx, *rec, CallEvent::kDisconnect);
        finish_record(slot);
        return;
    }
    if (const auto* rf = hw::payload_as<RefreshMsg>(d)) {
        CallRecord* rec = find_record(rf->id);
        if (rec == nullptr || call_state_terminal(rec->state)) return;
        if (rec->source == self) return;
        if (options_.reservation_ttl > 0) {
            rec->lease_deadline = ctx.now() + options_.reservation_ttl;
            note(ctx, *rec, CallEvent::kRefresh);
        }
        return;
    }
    FASTNET_ENSURES_MSG(false, "unexpected payload in call agent");
}

// ---- link events ---------------------------------------------------------

void CallAgentProtocol::on_link_state(node::Context& ctx, const node::LocalLink& link,
                                      bool up) {
    if (up) return;
    // Any call whose route crosses the dead link at this node is lost.
    // Slot order is allocation order — deterministic for a given event
    // history. (kBackoff records hold nothing and survive: their retry
    // re-walks the path once the backoff expires.)
    for (std::uint32_t slot = 0; slot < slab_.size(); ++slot) {
        CallRecord& rec = slab_[slot];
        if (rec.state != CallState::kReserved && rec.state != CallState::kActive &&
            rec.state != CallState::kSettingUp)
            continue;
        const bool outgoing_died = rec.reserved_edge == link.edge;
        // Incoming side: the dead link is the hop that reaches us; we can
        // still reach the destination side.
        const bool incoming_died =
            !outgoing_died && !rec.to_source.empty() &&
            rec.source != ctx.self() &&
            rec.to_source.front().port() == link.port;
        if (!outgoing_died && !incoming_died) continue;

        if (rec.source == ctx.self() && rec.state == CallState::kSettingUp &&
            options_.max_retries > 0) {
            // Source with its first hop cut mid-setup: the downstream
            // side of the cut disconnects everything it can still reach;
            // we release our hop and back off instead of dying.
            note(ctx, rec, CallEvent::kDisconnect);
            release_local(rec, rec.state);
            FASTNET_EXPECTS(inflight_setups_ > 0);
            --inflight_setups_;
            retry_or_block(ctx, slot, /*capacity_reject=*/false);
            continue;
        }

        auto dis = std::make_shared<DisconnectMsg>();
        dis->id = rec.id;
        if (outgoing_died && !rec.to_source.empty() && rec.source != ctx.self()) {
            ctx.send(rec.to_source, dis);
        } else if (outgoing_died && rec.source == ctx.self()) {
            // We are the source: nothing upstream to tell.
        } else if (incoming_died && !rec.to_destination.empty()) {
            ctx.send(rec.to_destination, dis);
        }
        if (rec.source == ctx.self() &&
            (rec.state == CallState::kActive || rec.state == CallState::kSettingUp)) {
            if (rec.state == CallState::kActive) {
                calls_active_ -= 1;
            } else {
                FASTNET_EXPECTS(inflight_setups_ > 0);
                --inflight_setups_;
            }
            calls_failed_ += 1;
            ++stats_.failed;
        }
        release_local(rec, CallState::kFailed);
        note(ctx, rec, CallEvent::kDisconnect);
        finish_record(slot);
    }
}

std::size_t CallAgentProtocol::memory_bytes() const {
    std::size_t b = sizeof(*this);
    b += reserved_.memory_bytes() + index_.memory_bytes() + route_index_.memory_bytes();
    b += slab_.capacity() * sizeof(CallRecord);
    b += slot_gen_.capacity() * sizeof(std::uint32_t);
    b += free_slots_.capacity() * sizeof(std::uint32_t);
    for (const CallRecord& r : slab_)
        b += (r.to_source.capacity() + r.to_destination.capacity()) * sizeof(hw::AnrLabel);
    b += routes_.capacity() * sizeof(Route);
    for (const Route& rt : routes_)
        b += rt.path.capacity() * sizeof(NodeId) +
             (rt.fwd_ports.capacity() + rt.rev_ports.capacity()) * sizeof(hw::PortId);
    if (bfs_)
        b += sizeof(graph::BfsResult) + bfs_->parent.capacity() * sizeof(NodeId) +
             bfs_->dist.capacity() * sizeof(unsigned);
    b += options_.requests.capacity() * sizeof(CallRequest);
    return b;
}

// ---- factories and folding -----------------------------------------------

node::ProtocolFactory make_call_agents(const graph::Graph& g, std::uint32_t link_capacity,
                                       std::map<NodeId, std::vector<CallRequest>> scripts,
                                       bool selective_copy) {
    return [&g, link_capacity, scripts = std::move(scripts), selective_copy](NodeId u) {
        CallAgentOptions opt;
        opt.link_capacity = link_capacity;
        opt.selective_copy = selective_copy;
        if (const auto it = scripts.find(u); it != scripts.end()) opt.requests = it->second;
        return std::make_unique<CallAgentProtocol>(g, opt);
    };
}

node::ProtocolFactory make_call_workload(std::shared_ptr<const graph::Graph> g,
                                         CallAgentOptions base) {
    return [g = std::move(g), base = std::move(base)](NodeId) {
        return std::make_unique<CallAgentProtocol>(g, base);
    };
}

cost::CallStats fold_call_stats(const node::ParallelCluster& cluster) {
    cost::CallStats total;
    for (NodeId u = 0; u < cluster.node_count(); ++u) {
        const auto* agent = dynamic_cast<const CallAgentProtocol*>(&cluster.protocol(u));
        if (agent != nullptr) total.merge_from(agent->stats());
    }
    return total;
}

}  // namespace fastnet::paris
