#include "cost/metrics.hpp"

#include <algorithm>
#include <ostream>

namespace fastnet::cost {

std::uint64_t Metrics::total_message_system_calls() const {
    std::uint64_t total = 0;
    for (const NodeCounters& c : nodes_) total += c.message_deliveries;
    return total;
}

std::uint64_t Metrics::total_invocations() const {
    std::uint64_t total = 0;
    for (const NodeCounters& c : nodes_) total += c.invocations();
    return total;
}

Sampling::Sampling(NodeId node_count, Tick window) : window_(window) {
    FASTNET_EXPECTS(window >= 1);
    nodes_.reserve(node_count);
    for (NodeId u = 0; u < node_count; ++u)
        nodes_.push_back(NodeSeries{TimeSeries(window), TimeSeries(window), TimeSeries(window),
                                    TimeSeries(window)});
    hops_ = TimeSeries(window);
    sends_ = TimeSeries(window);
    drops_ = TimeSeries(window);
    bytes_per_node_ = TimeSeries(window);
}

void Sampling::phase_call(std::uint64_t phase) {
    for (auto& [p, n] : phase_calls_) {
        if (p == phase) {
            ++n;
            return;
        }
    }
    phase_calls_.emplace_back(phase, 1);
}

void Sampling::merge_from(const Sampling& o) {
    FASTNET_EXPECTS(o.window_ == window_);
    FASTNET_EXPECTS(o.nodes_.size() == nodes_.size());
    for (std::size_t u = 0; u < nodes_.size(); ++u) {
        nodes_[u].busy.merge_from(o.nodes_[u].busy);
        nodes_[u].hw_time.merge_from(o.nodes_[u].hw_time);
        nodes_[u].deliveries.merge_from(o.nodes_[u].deliveries);
        nodes_[u].queue_depth.merge_from(o.nodes_[u].queue_depth);
    }
    hops_.merge_from(o.hops_);
    sends_.merge_from(o.sends_);
    drops_.merge_from(o.drops_);
    bytes_per_node_.merge_from(o.bytes_per_node_);
    hop_latency_.merge_from(o.hop_latency_);
    delivery_latency_.merge_from(o.delivery_latency_);
    header_len_.merge_from(o.header_len_);
    ncu_busy_.merge_from(o.ncu_busy_);
    queue_depth_.merge_from(o.queue_depth_);
    for (const auto& [p, n] : o.phase_calls_) {
        bool found = false;
        for (auto& [mine, count] : phase_calls_) {
            if (mine == p) {
                count += n;
                found = true;
                break;
            }
        }
        if (!found) phase_calls_.emplace_back(p, n);
    }
    // First-use order is per-shard state; phase ids are global. Sort so
    // the merged serialization is a function of the run, not the split.
    std::sort(phase_calls_.begin(), phase_calls_.end());
}

const char* path_segment_kind_name(PathSegmentKind k) {
    switch (k) {
        case PathSegmentKind::kQueueing: return "queueing";
        case PathSegmentKind::kTransit: return "transit";
        case PathSegmentKind::kHandler: return "handler";
        case PathSegmentKind::kTimerWait: return "timer_wait";
        case PathSegmentKind::kRetryBackoff: return "retry_backoff";
    }
    return "?";
}

const char* handler_kind_name(HandlerKind k) {
    switch (k) {
        case HandlerKind::kStart: return "start";
        case HandlerKind::kRestart: return "restart";
        case HandlerKind::kDelivery: return "delivery";
        case HandlerKind::kLink: return "link";
        case HandlerKind::kTimer: return "timer";
    }
    return "?";
}

std::uint16_t Profiler::register_protocol(std::string_view name) {
    for (std::size_t i = 0; i < entries_.size(); ++i)
        if (entries_[i].name == name) return static_cast<std::uint16_t>(i);
    FASTNET_EXPECTS(entries_.size() < kNoProtocol);
    entries_.push_back(Entry{std::string(name), {}});
    return static_cast<std::uint16_t>(entries_.size() - 1);
}

bool Profiler::any() const {
    for (const Entry& e : entries_)
        if (e.invocations() != 0) return true;
    return false;
}

std::vector<std::size_t> Profiler::sorted() const {
    std::vector<std::size_t> order(entries_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [this](std::size_t x, std::size_t y) {
        return entries_[x].name < entries_[y].name;
    });
    return order;
}

void Profiler::merge_from(const Profiler& o) {
    for (const Entry& from : o.entries_) {
        const std::uint16_t id = register_protocol(from.name);
        Entry& into = entries_[id];
        for (unsigned k = 0; k < kHandlerKindCount; ++k)
            into.by_kind[k].merge_from(from.by_kind[k]);
    }
}

void Profiler::reset() {
    for (Entry& e : entries_) e.by_kind = {};
}

void TraceStats::merge_from(const TraceStats& o) {
    total_recorded += o.total_recorded;
    dropped += o.dropped;
    detail_dropped += o.detail_dropped;
    spilled_records += o.spilled_records;
    spill_segments += o.spill_segments;
    spilled_bytes += o.spilled_bytes;
    resident_bytes += o.resident_bytes;
}

void CallStats::merge_from(const CallStats& o) {
    offered += o.offered;
    shed += o.shed;
    placed += o.placed;
    accepted += o.accepted;
    blocked += o.blocked;
    completed += o.completed;
    failed += o.failed;
    timeouts += o.timeouts;
    retries += o.retries;
    reaped += o.reaped;
    setup_latency.merge_from(o.setup_latency);
    retries_per_call.merge_from(o.retries_per_call);
}

void Metrics::merge_from(const Metrics& o) {
    FASTNET_EXPECTS(o.nodes_.size() == nodes_.size());
    for (std::size_t u = 0; u < nodes_.size(); ++u) {
        NodeCounters& into = nodes_[u];
        const NodeCounters& from = o.nodes_[u];
        into.message_deliveries += from.message_deliveries;
        into.starts += from.starts;
        into.timer_fires += from.timer_fires;
        into.link_events += from.link_events;
        into.sends += from.sends;
        into.crashes += from.crashes;
        into.restarts += from.restarts;
        into.busy_time += from.busy_time;
    }
    net_.injections += o.net_.injections;
    net_.hops += o.net_.hops;
    net_.ncu_deliveries += o.net_.ncu_deliveries;
    net_.drops_inactive_link += o.net_.drops_inactive_link;
    net_.drops_no_match += o.net_.drops_no_match;
    net_.drops_empty_header += o.net_.drops_empty_header;
    net_.max_header_len = std::max(net_.max_header_len, o.net_.max_header_len);
    net_.header_bits += o.net_.header_bits;
    net_.drops_injected += o.net_.drops_injected;
    net_.dup_copies += o.net_.dup_copies;
    calls_.merge_from(o.calls_);
    profiler_.merge_from(o.profiler_);
    trace_stats_.merge_from(o.trace_stats_);
    if (sampling_ != nullptr && o.sampling_ != nullptr) sampling_->merge_from(*o.sampling_);
    if (o.memory_samples_ > 0) {
        // The later observation stays the latest; counts add, peaks max.
        if (memory_samples_ == 0 || o.memory_latest_.at >= memory_latest_.at)
            memory_latest_ = o.memory_latest_;
        memory_samples_ += o.memory_samples_;
        peak_node_bytes_ = std::max(peak_node_bytes_, o.peak_node_bytes_);
    }
}

void Metrics::record_memory(const MemorySample& s) {
    memory_latest_ = s;
    ++memory_samples_;
    peak_node_bytes_ = std::max(peak_node_bytes_, s.max_node_bytes);
    if (sampling_ != nullptr && !nodes_.empty()) {
        const double mean =
            static_cast<double>(s.breakdown.total()) / static_cast<double>(nodes_.size());
        sampling_->bytes_per_node().add(s.at, mean);
    }
}

void Metrics::reset() {
    for (NodeCounters& c : nodes_) c = NodeCounters{};
    net_ = NetCounters{};
    calls_ = CallStats{};
    profiler_.reset();  // keeps registrations; clears the histograms
    trace_stats_ = TraceStats{};
    phase_ = 0;
    memory_latest_ = MemorySample{};
    memory_samples_ = 0;
    peak_node_bytes_ = 0;
    if (sampling_ != nullptr) {
        const Tick w = sampling_->window();
        sampling_ = std::make_unique<Sampling>(static_cast<NodeId>(nodes_.size()), w);
    }
}

void Metrics::enable_sampling(Tick window) {
    sampling_ = std::make_unique<Sampling>(static_cast<NodeId>(nodes_.size()), window);
}

CostReport snapshot(const Metrics& m, Tick completion_time) {
    CostReport r;
    r.system_calls = m.total_message_system_calls();
    r.invocations = m.total_invocations();
    r.direct_messages = m.total_direct_messages();
    r.hops = m.net().hops;
    r.max_header_len = m.net().max_header_len;
    r.completion_time = completion_time;
    return r;
}

std::ostream& operator<<(std::ostream& os, const CostReport& r) {
    return os << "{system_calls=" << r.system_calls << ", invocations=" << r.invocations
              << ", direct_messages=" << r.direct_messages << ", hops=" << r.hops
              << ", max_header_len=" << r.max_header_len << ", time=" << r.completion_time
              << "}";
}

}  // namespace fastnet::cost
