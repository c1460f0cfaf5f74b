#include "obs/monitor.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/expect.hpp"
#include "obs/json.hpp"
#include "sim/trace_spill.hpp"

namespace fastnet::obs {

namespace {

/// Merge order: (at, node with kNoNode last, lineage). Stable sorts and
/// upper_bound inserts keep equal keys in the order they were reported.
bool merge_order(const Violation& a, const Violation& b) {
    if (a.at != b.at) return a.at < b.at;
    const std::uint64_t ka = sim::trace_node_sort_key(a.node);
    const std::uint64_t kb = sim::trace_node_sort_key(b.node);
    if (ka != kb) return ka < kb;
    return a.lineage < b.lineage;
}

}  // namespace

void Monitor::on_finish(MonitorHub&, Tick) {}

void MonitorHub::add(std::unique_ptr<Monitor> m) {
    Entry e;
    e.monitor = std::move(m);
    monitors_.push_back(std::move(e));
}

void MonitorHub::dispatch(const MonitorEvent& ev) {
    for (Entry& e : monitors_) e.monitor->on_event(*this, ev);
}

void MonitorHub::finish(Tick now) {
    for (Entry& e : monitors_) e.monitor->on_finish(*this, now);
}

void MonitorHub::report(const Monitor& monitor, Tick at, NodeId node, std::uint64_t lineage,
                        std::string message) {
    std::size_t index = 0;
    while (index < monitors_.size() && monitors_[index].monitor.get() != &monitor) ++index;
    FASTNET_EXPECTS_MSG(index < monitors_.size(), "report from an unregistered monitor");
    ++violation_count_;
    if (trace_ && trace_->enabled(sim::TraceKind::kViolation)) {
        std::string detail = monitor.name();
        detail += ": ";
        detail += message;
        sim::TraceArgs args;
        args.lineage = lineage;
        args.a = index;
        trace_->record_detail(at, node, sim::TraceKind::kViolation, detail, args);
    }
    Violation v;
    v.monitor = monitor.name();
    v.message = std::move(message);
    v.at = at;
    v.node = node;
    v.lineage = lineage;
    // A full list takes the new violation only if it comes before the
    // last one kept, which it then displaces.
    std::vector<Violation>& kept = monitors_[index].kept;
    const auto pos = std::upper_bound(kept.begin(), kept.end(), v, merge_order) - kept.begin();
    if (kept.size() == kMaxStoredPerMonitor) {
        if (pos == static_cast<std::ptrdiff_t>(kept.size())) return;
        kept.pop_back();
    }
    kept.insert(kept.begin() + pos, std::move(v));
}

std::vector<Violation> MonitorHub::violations() const {
    const MonitorHub* self = this;
    return fold({&self, 1});
}

std::vector<Violation> MonitorHub::fold(std::span<const MonitorHub* const> hubs) {
    std::vector<Violation> out;
    if (hubs.empty()) return out;
    const std::size_t monitors = hubs[0]->monitors_.size();
    for (std::size_t m = 0; m < monitors; ++m) {
        // Each hub kept its first kMaxStoredPerMonitor of monitor m, so the
        // first kMaxStoredPerMonitor across hubs are among them. A node's
        // violations all come from one hub, so the stable sort keeps its
        // own order on ties.
        std::vector<Violation> first;
        for (const MonitorHub* hub : hubs) {
            FASTNET_EXPECTS_MSG(hub->monitors_.size() == monitors,
                                "folded hubs registered different monitors");
            const std::vector<Violation>& kept = hub->monitors_[m].kept;
            first.insert(first.end(), kept.begin(), kept.end());
        }
        std::stable_sort(first.begin(), first.end(), merge_order);
        if (first.size() > kMaxStoredPerMonitor) first.resize(kMaxStoredPerMonitor);
        out.insert(out.end(), std::make_move_iterator(first.begin()),
                   std::make_move_iterator(first.end()));
    }
    std::stable_sort(out.begin(), out.end(), merge_order);
    return out;
}

// ---- LineageConservationMonitor ------------------------------------------

void LineageConservationMonitor::on_event(MonitorHub& hub, const MonitorEvent& ev) {
    switch (ev.kind) {
        case MonitorEvent::Kind::kSend:
        case MonitorEvent::Kind::kDup:
        case MonitorEvent::Kind::kHandoff:
            ++live_[ev.lineage];
            last_at_ = ev.at;
            break;
        case MonitorEvent::Kind::kRetire: {
            std::int64_t* copies = live_.find(ev.lineage);
            if (copies == nullptr || *copies <= 0) {
                hub.report(*this, ev.at, ev.node, ev.lineage,
                           "retire without a live copy (lineage " +
                               std::to_string(ev.lineage) + ")");
                break;
            }
            --*copies;  // balanced entries stay at 0 (no erase; see on_finish)
            last_at_ = ev.at;
            break;
        }
        default:
            break;
    }
}

void LineageConservationMonitor::on_finish(MonitorHub& hub, Tick now) {
    // The map is probe-ordered; collect the unbalanced lineages and sort
    // so the report order is a function of the run, not the hash layout.
    std::vector<std::pair<std::uint64_t, std::int64_t>> open;
    for (const auto& e : live_.raw_entries()) {
        if (e.occupied && e.value != 0) open.emplace_back(e.key, e.value);
    }
    std::sort(open.begin(), open.end());
    for (const auto& [lineage, copies] : open) {
        hub.report(*this, now > last_at_ ? now : last_at_, kNoNode, lineage,
                   std::to_string(copies) + " live cop" + (copies == 1 ? "y" : "ies") +
                       " never retired (lineage " + std::to_string(lineage) + ")");
    }
}

// ---- QueueDepthMonitor ---------------------------------------------------

void QueueDepthMonitor::on_event(MonitorHub& hub, const MonitorEvent& ev) {
    if (ev.kind != MonitorEvent::Kind::kEnqueue) return;
    if (ev.a <= ceiling_) return;
    hub.report(*this, ev.at, ev.node, ev.lineage,
               "queue depth " + std::to_string(ev.a) + " exceeds ceiling " +
                   std::to_string(ceiling_));
}

// ---- BusyWindowMonitor ---------------------------------------------------

void BusyWindowMonitor::on_event(MonitorHub& hub, const MonitorEvent& ev) {
    if (ev.kind != MonitorEvent::Kind::kInvoke) return;
    if (ev.at < last_global_) {
        hub.report(*this, ev.at, ev.node, ev.lineage,
                   "invocation completed at t=" + std::to_string(ev.at) +
                       " after a later completion at t=" + std::to_string(last_global_));
    }
    last_global_ = ev.at > last_global_ ? ev.at : last_global_;
    if (ev.node == kNoNode) return;
    if (ev.node >= last_end_.size()) last_end_.resize(ev.node + 1, kNever);
    const Tick busy = static_cast<Tick>(ev.b);
    const Tick begin = ev.at - busy;
    const Tick prev = last_end_[ev.node];
    if (prev != kNever && begin < prev) {
        hub.report(*this, ev.at, ev.node, ev.lineage,
                   "busy window [" + std::to_string(begin) + "," + std::to_string(ev.at) +
                       "] overlaps previous completion at t=" + std::to_string(prev));
    }
    last_end_[ev.node] = ev.at;
}

// ---- LinkFifoMonitor -----------------------------------------------------

void LinkFifoMonitor::on_event(MonitorHub& hub, const MonitorEvent& ev) {
    if (ev.kind != MonitorEvent::Kind::kHop) return;
    // One direction = (edge, arriving node); edges and nodes are 32-bit.
    const std::uint64_t key = (ev.a << 32) | ev.node;
    if (Tick* prev = last_arrival_.find(key)) {
        if (ev.at < *prev) {
            hub.report(*this, ev.at, ev.node, ev.lineage,
                       "FIFO order broken on edge " + std::to_string(ev.a) +
                           ": arrival at t=" + std::to_string(ev.at) +
                           " after one at t=" + std::to_string(*prev));
        } else if (spacing_ > 0 && ev.at - *prev < spacing_) {
            hub.report(*this, ev.at, ev.node, ev.lineage,
                       "arrivals " + std::to_string(ev.at - *prev) +
                           " apart on edge " + std::to_string(ev.a) +
                           " (link spacing " + std::to_string(spacing_) + ")");
        }
        *prev = ev.at > *prev ? ev.at : *prev;
        return;
    }
    last_arrival_[key] = ev.at;
}

// ---- MemoryBudgetMonitor -------------------------------------------------

void MemoryBudgetMonitor::on_event(MonitorHub& hub, const MonitorEvent& ev) {
    if (ev.kind != MonitorEvent::Kind::kMemory || ev.node == kNoNode) return;
    if (ev.node >= over_.size()) over_.resize(ev.node + 1, 0);
    const bool over = ev.a > ceiling_;
    if (over && !over_[ev.node]) {
        hub.report(*this, ev.at, ev.node, 0,
                   "node footprint " + std::to_string(ev.a) + " bytes exceeds budget " +
                       std::to_string(ceiling_));
    }
    over_[ev.node] = over ? 1 : 0;
}

// ---- SerializedSendMonitor -----------------------------------------------

void SerializedSendMonitor::on_event(MonitorHub& hub, const MonitorEvent& ev) {
    if (ev.kind == MonitorEvent::Kind::kInvoke && ev.node != kNoNode &&
        static_cast<cost::HandlerKind>(ev.a) == cost::HandlerKind::kRestart) {
        if (ev.node < last_send_.size()) last_send_[ev.node] = kNever;
        return;
    }
    if (ev.kind != MonitorEvent::Kind::kSend || ev.node == kNoNode) return;
    if (ev.node >= last_send_.size()) last_send_.resize(ev.node + 1, kNever);
    const Tick prev = last_send_[ev.node];
    if (prev != kNever && min_gap_ > 0 && ev.at - prev < min_gap_) {
        hub.report(*this, ev.at, ev.node, ev.lineage,
                   "sends " + std::to_string(ev.at - prev) + " apart at node " +
                       std::to_string(ev.node) + " (serialized-send gap " +
                       std::to_string(min_gap_) + ")");
    }
    last_send_[ev.node] = ev.at;
}

// ---- TraceOverflowMonitor ------------------------------------------------

void TraceOverflowMonitor::on_event(MonitorHub& hub, const MonitorEvent& ev) {
    if (ev.kind != MonitorEvent::Kind::kTraceDrop) return;
    if (ev.a != 0 && !reported_records_) {
        reported_records_ = true;
        hub.report(*this, ev.at, ev.node, 0,
                   "trace ring overflowed: " + std::to_string(ev.a) +
                       " record(s) dropped (size the ring up or enable spill)");
    }
    if (ev.b != 0 && !reported_details_) {
        reported_details_ = true;
        hub.report(*this, ev.at, ev.node, 0,
                   "trace detail arena overflowed: " + std::to_string(ev.b) +
                       " detail string(s) dropped");
    }
}

void add_standard_monitors(MonitorHub& hub, std::uint64_t queue_ceiling) {
    hub.add(std::make_unique<LineageConservationMonitor>());
    hub.add(std::make_unique<BusyWindowMonitor>());
    hub.add(std::make_unique<QueueDepthMonitor>(queue_ceiling));
}

void add_standard_monitors(MonitorHub& hub, const StandardMonitorOptions& options) {
    add_standard_monitors(hub, options.queue_ceiling);
    hub.add(std::make_unique<LinkFifoMonitor>(options.link_spacing));
    hub.add(std::make_unique<SerializedSendMonitor>(options.min_send_gap));
    hub.add(std::make_unique<TraceOverflowMonitor>());
}

std::string violations_json(const MonitorHub& hub, const std::string& name) {
    return violations_json(hub.monitor_count(), hub.violation_count(), hub.violations(),
                           name);
}

std::string violations_json(std::size_t monitor_count, std::uint64_t violation_count,
                            const std::vector<Violation>& violations,
                            const std::string& name) {
    std::string out = "{\n";
    out += "  \"fastnet_monitors\": 1,\n";
    out += "  \"name\": ";
    out += json_quote(name);
    out += ",\n";
    out += "  \"monitors\": " + std::to_string(monitor_count) + ",\n";
    out += "  \"violation_count\": " + std::to_string(violation_count) + ",\n";
    out += "  \"ok\": ";
    out += violation_count == 0 ? "true" : "false";
    out += ",\n";
    out += "  \"violations\": [";
    bool first = true;
    for (const Violation& v : violations) {
        if (!first) out += ',';
        first = false;
        out += "\n    {\"monitor\": ";
        out += json_quote(v.monitor);
        out += ", \"at\": " + std::to_string(v.at);
        out += ", \"node\": ";
        out += v.node == kNoNode ? std::string("null") : std::to_string(v.node);
        out += ", \"lineage\": " + std::to_string(v.lineage);
        out += ", \"message\": ";
        out += json_quote(v.message);
        out += '}';
    }
    if (!first) out += "\n  ";
    out += "]\n}\n";
    return out;
}

}  // namespace fastnet::obs
