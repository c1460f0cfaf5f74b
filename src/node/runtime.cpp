#include "node/runtime.hpp"

#include <algorithm>

namespace fastnet::node {

NodeRuntime::NodeRuntime(NodeId self, hw::Network& net, std::unique_ptr<Protocol> protocol,
                         Rng rng, util::Arena& arena, Tick ncu_delay_min, bool free_multisend)
    : self_(self),
      net_(net),
      protocol_(std::move(protocol)),
      rng_(rng),
      ncu_delay_min_(ncu_delay_min),
      free_multisend_(free_multisend) {
    FASTNET_EXPECTS(protocol_ != nullptr);
    const graph::Graph& g = net_.graph();
    link_count_ = static_cast<std::uint32_t>(g.degree(self));
    links_ = arena.allocate_uninitialized<LocalLink>(link_count_);
    std::uint32_t i = 0;
    for (const graph::IncidentEdge& ie : g.incident(self)) {
        LocalLink l;
        l.edge = ie.edge;
        l.neighbor = ie.neighbor;
        l.port = net_.port_for_edge(self, ie.edge);
        l.remote_port = net_.port_for_edge(ie.neighbor, ie.edge);
        l.active = net_.link_active(ie.edge);
        links_[i++] = l;
    }
}

Tick NodeRuntime::now() const { return net_.simulator().now(); }

void NodeRuntime::request_start(Tick at) {
    net_.schedule_at(self_, at, [this, inc = incarnation_] {
        if (inc != incarnation_) return;  // node crashed since the request
        enqueue(StartWork{});
    });
}

void NodeRuntime::on_delivery(hw::Delivery&& d) { enqueue(std::move(d)); }

void NodeRuntime::crash() {
    if (crashed_) return;
    crashed_ = true;
    ++incarnation_;
    ncu_ = Ncu::kIdle;
    extra_busy_ = 0;
    sends_this_call_ = 0;
    current_lineage_ = 0;
    queue_.clear();
    for (const auto& [id, ev] : pending_timers_) net_.cancel_scheduled(ev);
    pending_timers_.clear();
    cancelled_timers_.clear();
    net_.metrics().node(self_).crashes += 1;
    if (trace_)
        trace_->record(now(), self_, sim::TraceKind::kCrash, {.a = incarnation_ - 1});
}

void NodeRuntime::restart(std::unique_ptr<Protocol> fresh) {
    FASTNET_EXPECTS_MSG(crashed_, "restart of a node that is not down");
    FASTNET_EXPECTS(fresh != nullptr);
    crashed_ = false;
    protocol_ = std::move(fresh);
    // Data-link re-initialization: the fresh incarnation learns the
    // *current* state of its links, not the state at crash time.
    for (std::uint32_t i = 0; i < link_count_; ++i)
        links_[i].active = net_.link_active(links_[i].edge);
    if (trace_) trace_->record(now(), self_, sim::TraceKind::kRestart, {.a = incarnation_});
    enqueue(RestartWork{});
}

void NodeRuntime::set_stall(Tick extra) {
    FASTNET_EXPECTS(extra >= 0);
    stall_extra_ = extra;
}

std::size_t NodeRuntime::memory_bytes() const {
    return sizeof(NodeRuntime) + link_count_ * sizeof(LocalLink) + queue_.memory_bytes() +
           pending_timers_.capacity() * sizeof(pending_timers_[0]) +
           cancelled_timers_.capacity() * sizeof(TimerId);
}

void NodeRuntime::on_link_notification(EdgeId e, bool up) {
    for (std::size_t i = 0; i < link_count_; ++i) {
        if (links_[i].edge == e) {
            enqueue(LinkWork{i, up});
            return;
        }
    }
    FASTNET_ENSURES_MSG(false, "link notification for non-incident edge");
}

void NodeRuntime::enqueue(Work w) {
    if (crashed_) return;  // a dead NCU accepts no work
    queue_.push_back(std::move(w));
    // Queued plus in service: an item in service is still at the front.
    const std::size_t depth_items = queue_.size() + (ncu_ == Ncu::kSendTail ? 1 : 0);
    if (cost::Sampling* s = net_.metrics().sampling()) {
        const auto depth = static_cast<double>(depth_items);
        s->node(self_).queue_depth.add(now(), depth);
        s->queue_depth().add(static_cast<std::uint64_t>(depth));
    }
    if (obs::MonitorHub* hub = net_.monitors(); hub != nullptr && hub->active()) {
        obs::MonitorEvent ev;
        ev.kind = obs::MonitorEvent::Kind::kEnqueue;
        ev.at = now();
        ev.node = self_;
        ev.a = depth_items;
        hub->dispatch(ev);
    }
    begin_next_if_idle();
}

Tick NodeRuntime::processing_delay() {
    const Tick p = net_.params().ncu_delay;
    Tick d = p;
    if (ncu_delay_min_ >= 0 && ncu_delay_min_ < p) d = rng_.range(ncu_delay_min_, p);
    return d + stall_extra_;
}

void NodeRuntime::begin_next_if_idle() {
    if (ncu_ != Ncu::kIdle || queue_.empty()) return;
    ncu_ = Ncu::kServing;
    const Tick delay = processing_delay();
    net_.metrics().node(self_).busy_time += delay;
    if (cost::Sampling* s = net_.metrics().sampling()) {
        // Software (P) budget: the processing window this invocation
        // occupies, attributed to its start tick.
        s->node(self_).busy.add(now(), static_cast<double>(delay));
        s->ncu_busy().add(static_cast<std::uint64_t>(delay));
    }
    // 24-byte capture: fits sim::InlineFn's inline buffer.
    net_.schedule_after(self_, delay, [this, inc = incarnation_, delay] {
        if (inc != incarnation_) return;  // crashed mid-handler: never completes
        ncu_ = Ncu::kIdle;
        sends_this_call_ = 0;
        extra_busy_ = 0;
        Work w = std::move(queue_.front());
        queue_.pop_front();
        complete(w, delay);
        if (extra_busy_ > 0) {
            // Ablation A1: serialized sends keep the processor occupied.
            ncu_ = Ncu::kSendTail;
            net_.metrics().node(self_).busy_time += extra_busy_;
            net_.schedule_after(self_, extra_busy_, [this, inc] {
                if (inc != incarnation_) return;
                ncu_ = Ncu::kIdle;
                begin_next_if_idle();
            });
            return;
        }
        begin_next_if_idle();
    });
}

void NodeRuntime::complete(Work& w, Tick busy) {
    cost::NodeCounters& counters = net_.metrics().node(self_);
    auto invoke_kind = obs::MonitorEvent::InvokeKind::kStart;
    std::uint64_t invoke_lineage = 0;
    if (std::holds_alternative<StartWork>(w)) {
        counters.starts += 1;
        if (trace_ && trace_->enabled(sim::TraceKind::kStart))
            trace_->record(now(), self_, sim::TraceKind::kStart,
                           {.b = static_cast<std::uint64_t>(busy)});
        protocol_->on_start(*this);
    } else if (std::holds_alternative<RestartWork>(w)) {
        invoke_kind = obs::MonitorEvent::InvokeKind::kRestart;
        counters.restarts += 1;
        protocol_->on_restart(*this);
    } else if (auto* d = std::get_if<hw::Delivery>(&w)) {
        invoke_kind = obs::MonitorEvent::InvokeKind::kDelivery;
        invoke_lineage = d->lineage;
        counters.message_deliveries += 1;
        if (trace_ && trace_->enabled(sim::TraceKind::kDeliver))
            trace_->record(now(), self_, sim::TraceKind::kDeliver,
                           {.lineage = d->lineage, .a = d->hops,
                            .b = static_cast<std::uint64_t>(busy),
                            .c = static_cast<std::uint64_t>(d->sent_at)});
        if (cost::Sampling* s = net_.metrics().sampling()) {
            s->node(self_).deliveries.add(now(), 1);
            s->phase_call(net_.metrics().phase());
        }
        current_lineage_ = d->lineage;
        protocol_->on_message(*this, *d);
        current_lineage_ = 0;
    } else if (auto* l = std::get_if<LinkWork>(&w)) {
        invoke_kind = obs::MonitorEvent::InvokeKind::kLink;
        counters.link_events += 1;
        links_[l->link_index].active = l->up;
        if (trace_ && trace_->enabled(sim::TraceKind::kLinkChange))
            trace_->record(now(), self_, sim::TraceKind::kLinkChange,
                           {.a = links_[l->link_index].edge,
                            .b = static_cast<std::uint64_t>(busy),
                            .flag = l->up ? std::uint8_t{1} : std::uint8_t{0}});
        protocol_->on_link_state(*this, links_[l->link_index], l->up);
    } else if (auto* t = std::get_if<TimerWork>(&w)) {
        auto it = std::find(cancelled_timers_.begin(), cancelled_timers_.end(), t->id);
        if (it != cancelled_timers_.end()) {
            cancelled_timers_.erase(it);
            return;  // cancelled after the fire event queued the work
        }
        invoke_kind = obs::MonitorEvent::InvokeKind::kTimer;
        invoke_lineage = t->lineage;
        counters.timer_fires += 1;
        if (trace_ && trace_->enabled(sim::TraceKind::kTimer))
            trace_->record(now(), self_, sim::TraceKind::kTimer,
                           {.lineage = t->lineage, .a = t->cookie,
                            .b = static_cast<std::uint64_t>(busy),
                            .c = static_cast<std::uint64_t>(t->armed_at)});
        current_lineage_ = t->lineage;
        protocol_->on_timer(*this, t->cookie);
        current_lineage_ = 0;
    }
    // Always-on profiler: InvokeKind and cost::HandlerKind share value
    // order, so the cast is the whole mapping.
    net_.metrics().profiler().record(
        profile_id_, static_cast<cost::HandlerKind>(invoke_kind), busy);
    if (obs::MonitorHub* hub = net_.monitors(); hub != nullptr && hub->active()) {
        obs::MonitorEvent ev;
        ev.kind = obs::MonitorEvent::Kind::kInvoke;
        ev.at = now();
        ev.node = self_;
        ev.lineage = invoke_lineage;
        ev.a = static_cast<std::uint64_t>(invoke_kind);
        ev.b = static_cast<std::uint64_t>(busy);
        hub->dispatch(ev);
    }
}

void NodeRuntime::send(const hw::AnrHeader& header, std::shared_ptr<const hw::Payload> payload) {
    send_or_defer(header, std::move(payload));
}

void NodeRuntime::send(const hw::Route& route, std::shared_ptr<const hw::Payload> payload) {
    send_or_defer(route, std::move(payload));
}

template <typename Labels>
void NodeRuntime::send_or_defer(const Labels& labels, std::shared_ptr<const hw::Payload> payload) {
    const unsigned index = sends_this_call_++;
    if (free_multisend_ || index == 0) {
        net_.send(self_, labels, std::move(payload), current_lineage_);
        return;
    }
    // Without the free multi-link send, each further packet needs its own
    // processing slot: it leaves index * P later.
    const Tick wait = static_cast<Tick>(index) * net_.params().ncu_delay;
    extra_busy_ = std::max(extra_busy_, wait);
    net_.schedule_after(self_, wait, [this, inc = incarnation_, lin = current_lineage_,
                                      r = hw::Route(labels), p = std::move(payload)]() mutable {
        if (inc != incarnation_) return;  // crashed before the packet left
        net_.send(self_, r, std::move(p), lin);
    });
}

void NodeRuntime::reply(const hw::Delivery& to, std::shared_ptr<const hw::Payload> payload) {
    net_.send(self_, to.reverse(), std::move(payload), current_lineage_);
}

TimerId NodeRuntime::set_timer(Tick delay, std::uint64_t cookie) {
    FASTNET_EXPECTS(delay >= 0);
    const TimerId id = next_timer_++;
    const sim::EventId ev = net_.schedule_after(
        self_, delay,
        [this, inc = incarnation_, lin = current_lineage_, armed = now(), id, cookie] {
            if (inc != incarnation_) return;  // crash already cancelled it
            std::erase_if(pending_timers_, [id](const auto& p) { return p.first == id; });
            enqueue(TimerWork{id, cookie, lin, armed});
        });
    pending_timers_.emplace_back(id, ev);
    return id;
}

void NodeRuntime::cancel_timer(TimerId id) {
    auto it = std::find_if(pending_timers_.begin(), pending_timers_.end(),
                           [id](const auto& p) { return p.first == id; });
    if (it != pending_timers_.end()) {
        net_.cancel_scheduled(it->second);
        pending_timers_.erase(it);
        return;
    }
    // The fire event may already have enqueued the work; suppress it.
    cancelled_timers_.push_back(id);
}

}  // namespace fastnet::node
