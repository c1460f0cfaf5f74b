#include "node/parallel_cluster.hpp"

#include <algorithm>
#include <filesystem>
#include <iterator>

#include "sim/trace_spill.hpp"

namespace fastnet::node {

namespace {

/// The minimum delay one hop can take under this configuration — the
/// per-edge lookahead contribution (all edges share the jitter config).
Tick min_hop_delay(const ModelParams& params, const hw::NetworkConfig& net) {
    if (net.hop_delay_min >= 0 && params.hop_delay > net.hop_delay_min)
        return net.hop_delay_min;
    return params.hop_delay;
}

using sim::trace_node_sort_key;

/// One trace's bookkeeping (total recorded, drops, spill volume,
/// resident footprint) as the counter block metrics JSON exposes as the
/// "trace" section.
cost::TraceStats gather_trace_stats(const sim::Trace& trace) {
    cost::TraceStats s;
    s.total_recorded = trace.total_recorded();
    s.dropped = trace.dropped();
    s.detail_dropped = trace.detail_dropped();
    s.spilled_records = trace.spilled_records();
    s.spill_segments = trace.spill_segments();
    s.spilled_bytes = trace.spilled_bytes();
    s.resident_bytes = trace.resident_bytes();
    return s;
}

}  // namespace

ParallelCluster::ParallelCluster(graph::Graph g, ProtocolFactory factory,
                                 ParallelClusterConfig config)
    : graph_(std::move(g)), factory_(std::move(factory)), config_(std::move(config)) {
    FASTNET_EXPECTS(factory_ != nullptr);
    const NodeId n = graph_.node_count();

    graph::Partition part =
        graph::partition_bfs(graph_, config_.shards == 0 ? 1 : config_.shards);
    if (!part.boundary_edges.empty()) {
        const Tick link_min = min_hop_delay(config_.params, config_.net);
        if (link_min <= 0) {
            // Zero lookahead: a boundary packet could arrive "now", so no
            // window is safe. Degrade to one shard rather than reject —
            // the caller's configuration stays runnable, just serial.
            part = graph::partition_bfs(graph_, 1);
        } else {
            lookahead_ = link_min;
        }
    }
    const unsigned shard_count = part.shard_count;
    threads_ = shard_count == 1
                   ? 1
                   : (config_.threads != 0
                          ? config_.threads
                          : std::min(shard_count, exec::ThreadPool::hardware_threads()));
    if (threads_ == 0) threads_ = 1;

    fabric_ = std::make_unique<hw::Fabric>(graph_, config_.params, config_.net, std::move(part),
                                           config_.seed ^ 0x9e3779b97f4a7c15ULL);
    fabric_->set_link_sink([this](NodeId at, EdgeId e, bool up) {
        runtimes_[at]->on_link_notification(e, up);
    });

    shards_.reserve(shard_count);
    for (unsigned s = 0; s < shard_count; ++s) {
        auto sh = std::make_unique<Shard>();
        sh->metrics = std::make_unique<cost::Metrics>(0);
        if (config_.sample_window > 0) sh->metrics->enable_sampling(n, config_.sample_window);
        if (config_.trace_capacity > 0) {
            sh->trace = std::make_unique<sim::Trace>(config_.trace_capacity,
                                                     config_.trace_detail_capacity);
            for (unsigned k = 0; k < sim::kTraceKindCount; ++k) {
                const auto kind = static_cast<sim::TraceKind>(k);
                sh->trace->set_enabled(kind,
                                       (config_.trace_kinds & sim::trace_kind_bit(kind)) != 0);
            }
            if (!config_.trace_spill_dir.empty()) {
                if (s == 0) {
                    std::error_code ec;
                    std::filesystem::create_directories(config_.trace_spill_dir, ec);
                }
                sim::TraceSpillConfig spill;
                spill.path = sim::spill_shard_path(config_.trace_spill_dir, s);
                spill.shard = s;
                spill.resident_budget_bytes = config_.trace_budget_bytes;
                std::string error;
                FASTNET_EXPECTS_MSG(sh->trace->enable_spill(spill, &error),
                                    "trace spill enable failed");
            }
        }
        if (config_.monitor_setup) {
            sh->monitors = std::make_unique<obs::MonitorHub>();
            config_.monitor_setup(*sh->monitors);
            sh->monitors->attach_trace(sh->trace.get());
        }
        sh->net = std::make_unique<hw::Network>(sh->sim, *fabric_, s, *sh->metrics,
                                                sh->trace.get(), sh->monitors.get());
        sh->net->set_ncu_dispatch(
            [this](NodeId at, hw::Delivery&& d) { runtimes_[at]->on_delivery(std::move(d)); });
        shards_.push_back(std::move(sh));
    }

    // Runtimes in global node order: the factory and the protocol RNG
    // forks see the same sequence at any shard count.
    Rng master(config_.seed);
    runtimes_.reserve(n);
    for (NodeId u = 0; u < n; ++u) {
        Shard& sh = *shards_[fabric_->shard_of(u)];
        void* slot = sh.arena.allocate(sizeof(NodeRuntime), alignof(NodeRuntime));
        NodeRuntime* rt = new (slot) NodeRuntime(u, *sh.net, factory_(u), master.fork(), sh.arena,
                                                 config_.ncu_delay_min, config_.free_multisend);
        runtimes_.emplace_back(rt);
        rt->set_profile_id(sh.metrics->profiler().register_protocol(rt->protocol().name()));
    }
    if (threads_ > 1) pool_ = std::make_unique<exec::ThreadPool>(threads_);
}

ParallelCluster::~ParallelCluster() = default;

NodeRuntime& ParallelCluster::runtime(NodeId u) {
    FASTNET_EXPECTS(u < graph_.node_count());
    return *runtimes_[u];
}

const NodeRuntime& ParallelCluster::runtime(NodeId u) const {
    FASTNET_EXPECTS(u < graph_.node_count());
    return *runtimes_[u];
}

void ParallelCluster::push_action(ScenarioAction a) {
    FASTNET_EXPECTS_MSG(a.at >= control_floor_,
                        "control action targets an already-simulated time");
    actions_.push_back(a);
    actions_dirty_ = true;
}

void ParallelCluster::sort_actions() {
    if (!actions_dirty_) return;
    actions_dirty_ = false;
    // Only the unexecuted suffix moves; ties keep registration order.
    std::stable_sort(actions_.begin() + static_cast<std::ptrdiff_t>(next_action_),
                     actions_.end(),
                     [](const ScenarioAction& a, const ScenarioAction& b) {
                         return a.at < b.at;
                     });
}

void ParallelCluster::start(NodeId u, Tick at) {
    push_action({at, ScenarioAction::Kind::kStart, kNoEdge, u});
}

void ParallelCluster::start_all(Tick at) {
    push_action({at, ScenarioAction::Kind::kStart, kNoEdge, kNoNode});
}

void ParallelCluster::mark_phase(Tick at, std::uint64_t phase) {
    push_action({at, ScenarioAction::Kind::kMarkPhase, kNoEdge, kNoNode,
                 static_cast<Tick>(phase)});
}

void ParallelCluster::fail_link(Tick at, EdgeId e) {
    push_action({at, ScenarioAction::Kind::kFailLink, e, kNoNode});
}

void ParallelCluster::restore_link(Tick at, EdgeId e) {
    push_action({at, ScenarioAction::Kind::kRestoreLink, e, kNoNode});
}

void ParallelCluster::fail_node(Tick at, NodeId u) {
    push_action({at, ScenarioAction::Kind::kFailNode, kNoEdge, u});
}

void ParallelCluster::restore_node(Tick at, NodeId u) {
    push_action({at, ScenarioAction::Kind::kRestoreNode, kNoEdge, u});
}

void ParallelCluster::crash_node(Tick at, NodeId u) {
    push_action({at, ScenarioAction::Kind::kCrashNode, kNoEdge, u});
}

void ParallelCluster::restart_node(Tick at, NodeId u) {
    push_action({at, ScenarioAction::Kind::kRestartNode, kNoEdge, u});
}

void ParallelCluster::stall_node(Tick at, NodeId u, Tick extra) {
    FASTNET_EXPECTS(extra >= 0);
    push_action({at, ScenarioAction::Kind::kStallNode, kNoEdge, u, extra});
}

void ParallelCluster::schedule(const Scenario& scenario) {
    for (const ScenarioAction& a : scenario.actions()) push_action(a);
}

void ParallelCluster::advance_all_to(Tick t) {
    for (auto& sh : shards_) sh->sim.advance_to(t);
}

void ParallelCluster::apply_action(const ScenarioAction& a) {
    switch (a.kind) {
        case ScenarioAction::Kind::kStart:
            if (a.node == kNoNode)
                for (const auto& rt : runtimes_) rt->request_start(a.at);
            else
                runtime(a.node).request_start(a.at);
            break;
        case ScenarioAction::Kind::kFailLink:
            fabric_->set_link_active(a.edge, false);
            break;
        case ScenarioAction::Kind::kRestoreLink:
            fabric_->set_link_active(a.edge, true);
            break;
        case ScenarioAction::Kind::kFailNode:
            fabric_->fail_node(a.node);
            break;
        case ScenarioAction::Kind::kRestoreNode:
            fabric_->restore_node(a.node);
            break;
        case ScenarioAction::Kind::kCrashNode:
            if (runtime(a.node).crashed()) break;
            // Hardware first (links down, epochs bump, in-flight packets
            // die), then the owning shard's software loses its soft state:
            // queued work, timers, the protocol.
            fabric_->fail_node(a.node);
            runtime(a.node).crash();
            break;
        case ScenarioAction::Kind::kRestartNode:
            if (!runtime(a.node).crashed()) break;
            fabric_->restore_node(a.node);
            runtime(a.node).restart(factory_(a.node));
            break;
        case ScenarioAction::Kind::kStallNode:
            runtime(a.node).set_stall(a.amount);
            break;
        case ScenarioAction::Kind::kMarkPhase: {
            const auto phase = static_cast<std::uint64_t>(a.amount);
            for (auto& sh : shards_) sh->metrics->set_phase(phase);
            // One control record, owned by shard 0's trace — the merge
            // would otherwise duplicate it per shard.
            sim::Trace* trace = shards_[0]->trace.get();
            if (trace != nullptr && trace->enabled(sim::TraceKind::kPhase))
                trace->record(a.at, kNoNode, sim::TraceKind::kPhase, {.a = phase});
            break;
        }
    }
}

void ParallelCluster::apply_control_at(Tick t) {
    while (next_action_ < actions_.size() && actions_[next_action_].at == t) {
        apply_action(actions_[next_action_]);
        ++next_action_;
    }
}

void ParallelCluster::run_window(Tick until) {
    if (pool_ == nullptr) {
        for (auto& sh : shards_) sh->sim.run_until(until);
    } else {
        for (auto& sh : shards_)
            pool_->submit([raw = sh.get(), until] { raw->sim.run_until(until); });
        pool_->wait_idle();
    }
    // Drain outboxes straight into the target shards. The target queue
    // orders arrivals by (at, pri), which is globally unique — pri embeds
    // the sending context — so the injection order moves no event.
    for (auto& sh : shards_) {
        std::vector<hw::RemoteArrival>& outbox = sh->net->outbox();
        for (const hw::RemoteArrival& r : outbox)
            shards_[fabric_->shard_of(r.to)]->net->inject_remote(r);
        outbox.clear();
    }
}

void ParallelCluster::window_loop(Tick limit) {
    sort_actions();
    for (;;) {
        Tick te = kNever;
        for (const auto& sh : shards_) te = std::min(te, sh->sim.next_time());
        const Tick tc = next_action_ < actions_.size() ? actions_[next_action_].at : kNever;
        const Tick t0 = std::min(te, tc);
        if (t0 == kNever) break;
        if (limit != kNever && t0 > limit) break;
        if (tc <= te) {
            // Control barrier: all clocks meet at tc, then the timeline's
            // due actions run once, single-threaded.
            advance_all_to(tc);
            apply_control_at(tc);
            continue;
        }
        // Event window [t0, end): bounded by the lookahead, the next
        // control time and the caller's limit.
        Tick end = lookahead_ == kNever ? kNever : t0 + lookahead_;
        if (tc < end) end = tc;
        if (limit != kNever && limit + 1 < end) end = limit + 1;
        run_window(end == kNever ? kNever : end - 1);
        // An unbounded window ran to quiescence; later control may still
        // be scheduled, but only after everything already simulated.
        control_floor_ = end == kNever ? now() + 1 : end;
    }
}

Tick ParallelCluster::run() {
    window_loop(kNever);
    const Tick done = now();
    for (auto& sh : shards_) {
        if (sh->monitors == nullptr || !sh->monitors->active()) continue;
        // Overflowed trace buffers surface as an explicit violation
        // before the books close, never as a silent truncation.
        if (sh->trace != nullptr &&
            (sh->trace->dropped() != 0 || sh->trace->detail_dropped() != 0)) {
            obs::MonitorEvent ev;
            ev.kind = obs::MonitorEvent::Kind::kTraceDrop;
            ev.at = done;
            ev.a = sh->trace->dropped();
            ev.b = sh->trace->detail_dropped();
            sh->monitors->dispatch(ev);
        }
        sh->monitors->finish(done);
    }
    // Spill finalization runs after the monitors so their kViolation
    // records land in the file; trace stats then fold into each shard's
    // ledger (merged_metrics sums them). A segment whose write failed
    // counts its records as dropped, so the stats report the loss; the
    // kTraceDrop event above saw every drain but the last.
    for (auto& sh : shards_) {
        if (sh->trace == nullptr) continue;
        if (sh->trace->spill_enabled()) sh->trace->finish_spill();
        sh->metrics->set_trace_stats(gather_trace_stats(*sh->trace));
    }
    return done;
}

Tick ParallelCluster::run_until(Tick until) {
    window_loop(until);
    return now();
}

Tick ParallelCluster::now() const {
    Tick t = 0;
    for (const auto& sh : shards_) t = std::max(t, sh->sim.now());
    return t;
}

bool ParallelCluster::quiescent() const {
    if (next_action_ < actions_.size()) return false;
    for (const auto& sh : shards_) {
        if (!sh->sim.idle()) return false;
        if (!sh->net->outbox().empty()) return false;
    }
    for (const auto& rt : runtimes_)
        if (!rt->ncu_idle()) return false;
    return true;
}

void ParallelCluster::sample_memory() {
    cost::MemorySample s;
    s.at = now();
    s.breakdown.graph = graph_.memory_bytes();
    // The fabric once, the runtime index, and each shard's own packets.
    s.breakdown.network =
        fabric_->memory_bytes() + runtimes_.capacity() * sizeof(runtimes_[0]);
    for (const auto& sh : shards_) {
        s.breakdown.network += sh->net->shard_bytes();
        s.breakdown.arena_used += sh->arena.bytes_used();
        s.breakdown.arena_reserved += sh->arena.bytes_reserved();
        if (sh->trace != nullptr) s.breakdown.trace += sh->trace->resident_bytes();
    }
    for (NodeId u = 0; u < graph_.node_count(); ++u) {
        const NodeRuntime& rt = runtime(u);
        const std::uint64_t rt_bytes = rt.memory_bytes();
        const std::uint64_t proto = rt.crashed() ? 0 : rt.protocol().memory_bytes();
        s.breakdown.runtimes += rt_bytes;
        s.breakdown.protocols += proto;
        const std::uint64_t node_bytes = rt_bytes + proto;
        if (node_bytes > s.max_node_bytes) {
            s.max_node_bytes = node_bytes;
            s.max_node = u;
        }
        obs::MonitorHub* hub = shards_[fabric_->shard_of(u)]->monitors.get();
        if (hub != nullptr && hub->active()) {
            obs::MonitorEvent ev;
            ev.kind = obs::MonitorEvent::Kind::kMemory;
            ev.at = s.at;
            ev.node = u;
            ev.a = node_bytes;
            hub->dispatch(ev);
        }
    }
    // One ledger entry for the whole cluster, owned by shard 0 like the
    // control records; merged_metrics() carries it.
    shards_[0]->metrics->record_memory(s);
}

void ParallelCluster::set_profile(bool on) {
    // register_protocol dedups by name, so re-enabling lands on the
    // entries the construction-time registration created.
    for (NodeId u = 0; u < graph_.node_count(); ++u) {
        NodeRuntime& rt = *runtimes_[u];
        cost::Profiler& profiler = shards_[fabric_->shard_of(u)]->metrics->profiler();
        rt.set_profile_id(on ? profiler.register_protocol(rt.protocol().name())
                             : cost::Profiler::kNoProtocol);
    }
}

cost::Metrics ParallelCluster::merged_metrics() const {
    const NodeId n = graph_.node_count();
    cost::Metrics m(n);
    if (config_.sample_window > 0) m.enable_sampling(n, config_.sample_window);
    for (const auto& sh : shards_) m.merge_from(*sh->metrics);
    for (NodeId u = 0; u < n; ++u) m.node(u) = runtimes_[u]->counters();
    // Every shard replays the same phase marks.
    m.set_phase(shards_[0]->metrics->phase());
    return m;
}

std::vector<sim::TraceRecord> ParallelCluster::merged_trace() const {
    std::vector<sim::TraceRecord> all;
    for (const auto& sh : shards_) {
        if (sh->trace == nullptr) continue;
        std::vector<sim::TraceRecord> part = sh->trace->snapshot();
        all.insert(all.end(), std::make_move_iterator(part.begin()),
                   std::make_move_iterator(part.end()));
    }
    // Each (at, node) belongs to one shard (control records to shard 0),
    // so the stable sort fixes one global interleaving; within a pair the
    // shard's own recording order survives.
    std::stable_sort(all.begin(), all.end(),
                     [](const sim::TraceRecord& a, const sim::TraceRecord& b) {
                         if (a.at != b.at) return a.at < b.at;
                         return trace_node_sort_key(a.node) < trace_node_sort_key(b.node);
                     });
    return all;
}

std::uint64_t ParallelCluster::trace_total_recorded() const {
    std::uint64_t n = 0;
    for (const auto& sh : shards_)
        if (sh->trace != nullptr) n += sh->trace->total_recorded();
    return n;
}

std::uint64_t ParallelCluster::trace_dropped() const {
    std::uint64_t n = 0;
    for (const auto& sh : shards_)
        if (sh->trace != nullptr) n += sh->trace->dropped();
    return n;
}

std::uint64_t ParallelCluster::trace_detail_dropped() const {
    std::uint64_t n = 0;
    for (const auto& sh : shards_)
        if (sh->trace != nullptr) n += sh->trace->detail_dropped();
    return n;
}

std::uint64_t ParallelCluster::trace_spilled_records() const {
    std::uint64_t n = 0;
    for (const auto& sh : shards_)
        if (sh->trace != nullptr) n += sh->trace->spilled_records();
    return n;
}

std::size_t ParallelCluster::trace_resident_bytes_peak() const {
    std::size_t peak = 0;
    for (const auto& sh : shards_)
        if (sh->trace != nullptr) peak = std::max(peak, sh->trace->resident_bytes());
    return peak;
}

std::vector<std::string> ParallelCluster::spill_paths() const {
    std::vector<std::string> out;
    for (const auto& sh : shards_)
        if (sh->trace != nullptr && !sh->trace->spill_path().empty())
            out.push_back(sh->trace->spill_path());
    return out;
}

std::vector<obs::Violation> ParallelCluster::merged_violations() const {
    std::vector<const obs::MonitorHub*> hubs;
    for (const auto& sh : shards_)
        if (sh->monitors != nullptr) hubs.push_back(sh->monitors.get());
    return obs::MonitorHub::fold(hubs);
}

std::uint64_t ParallelCluster::violation_count() const {
    std::uint64_t n = 0;
    for (const auto& sh : shards_)
        if (sh->monitors != nullptr) n += sh->monitors->violation_count();
    return n;
}

std::size_t ParallelCluster::monitor_count() const {
    return shards_[0]->monitors == nullptr ? 0 : shards_[0]->monitors->monitor_count();
}

std::size_t ParallelCluster::packets_in_flight() const {
    std::size_t n = 0;
    for (const auto& sh : shards_) n += sh->net->packets_in_flight();
    return n;
}

Protocol& ParallelCluster::protocol(NodeId u) { return runtime(u).protocol(); }

const Protocol& ParallelCluster::protocol(NodeId u) const { return runtime(u).protocol(); }

bool ParallelCluster::crashed(NodeId u) const { return runtime(u).crashed(); }

}  // namespace fastnet::node
