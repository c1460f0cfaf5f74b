#include "obs/critical_path.hpp"

#include <algorithm>

#include "obs/json.hpp"

namespace fastnet::obs {

namespace {

constexpr Tick kNoHop = -1;

/// Timer cookies carry their kind in the low nibble (paris convention).
SegmentKind timer_wait_kind(std::uint64_t cookie) {
    return (cookie & 0xF) == kRetryCookieKind ? SegmentKind::kRetryBackoff
                                              : SegmentKind::kTimerWait;
}

}  // namespace

CriticalPathBuilder::CriticalPathBuilder(CriticalPathConfig config)
    : config_(config) {}

void CriticalPathBuilder::blame_add(std::uint64_t key, SegmentKind kind, Tick ticks) {
    if (ticks <= 0) return;
    auto* slot = blame_.find(key);
    if (slot == nullptr) {
        if (blame_.size() >= kBlameCapacity) {
            ++report_.blame_evicted;
            return;
        }
        slot = &blame_[key];
    }
    (*slot)[static_cast<unsigned>(kind)] += ticks;
}

void CriticalPathBuilder::maybe_prune(Tick now) {
    if (config_.horizon <= 0) return;
    if (now - last_prune_ < config_.horizon) return;
    last_prune_ = now;
    const Tick cutoff = now - config_.horizon;
    // Collect, then erase: backward-shift deletion must not race the
    // raw-entry walk. The pruned *set* is a pure function of the record
    // stream, so counters stay deterministic.
    std::vector<std::uint64_t> stale;
    for (const auto& e : live_.raw_entries())
        if (e.occupied && e.value.last_seen < cutoff) stale.push_back(e.key);
    for (const std::uint64_t k : stale) live_.erase(k);
    report_.live_pruned += stale.size();
    stale.clear();
    for (const auto& e : hop_ctx_.raw_entries())
        if (e.occupied && e.value < cutoff) stale.push_back(e.key);
    for (const std::uint64_t k : stale) hop_ctx_.erase(k);
    report_.hop_ctx_evicted += stale.size();
}

void CriticalPathBuilder::extend(ChainCtx& ctx, Tick at, Tick busy, Tick c,
                                 bool is_delivery, SegmentKind wait_kind,
                                 std::uint64_t lineage) {
    Tick hop_at = kNoHop;
    if (is_delivery) {
        if (Tick* h = hop_ctx_.find(lineage)) {
            hop_at = *h;
            hop_ctx_.erase(lineage);
        }
    }
    const Tick E = ctx.end;
    if (at < E) {  // cannot extend backward; keep the invariant, count it
        ++report_.clamped;
        return;
    }
    Tick anchor = c;
    if (anchor < E) {
        if (anchor != E) ++report_.clamped;
        anchor = E;
    }
    if (anchor > at) {
        ++report_.clamped;
        anchor = at;
    }
    Tick handler_start = at - busy;
    if (handler_start < anchor) {
        if (busy > at - anchor) ++report_.clamped;
        handler_start = anchor;
    }
    if (is_delivery) {
        // [E, anchor] is the send-side gap the records cannot explain
        // (A1 serialized sends): deterministically queueing.
        ctx.totals.add(SegmentKind::kQueueing, anchor - E);
        if (hop_at != kNoHop) {
            Tick h = std::clamp(hop_at, anchor, handler_start);
            if (h != hop_at) ++report_.clamped;
            ctx.totals.add(SegmentKind::kTransit, h - anchor);
            ctx.totals.add(SegmentKind::kQueueing, handler_start - h);
        } else {
            // No hop records (kind disabled): the whole pre-handler
            // span folds into transit.
            ctx.totals.add(SegmentKind::kTransit, handler_start - anchor);
        }
    } else {
        ctx.totals.add(wait_kind, handler_start - E);
    }
    ctx.totals.add(SegmentKind::kHandler, at - handler_start);
    ctx.end = at;
    ctx.depth += 1;
}

void CriticalPathBuilder::on_send(const sim::TraceRecord& r) {
    if (r.b == 0 || r.lineage == 0) return;  // root injection: stateless
    ChainCtx base;
    if (cur_valid_ && cur_at_ == r.at && cur_node_ == r.node && cur_lineage_ == r.b) {
        base = cur_ctx_;
    } else if (LiveEntry* p = live_.find(r.b)) {
        base.root = p->root;
        base.root_start = p->root_start;
        base.end = p->last_end;
        base.depth = p->last_depth;
        base.totals.ticks = p->last;
        p->last_seen = r.at;
    } else {
        ++report_.unanchored_sends;
        base.root = r.lineage;
        base.root_start = r.at;
        base.end = r.at;
    }
    if (base.end < r.at) {
        // Deferred send (A1 serialization or a lost context): the wait
        // between the parent's completion and this injection.
        base.totals.add(SegmentKind::kQueueing, r.at - base.end);
        base.end = r.at;
    } else if (base.end > r.at) {
        ++report_.clamped;
    }
    LiveEntry* slot = &live_[r.lineage];
    slot->root = base.root;
    slot->root_start = base.root_start;
    slot->prefix_end = base.end;
    slot->last_end = base.end;
    slot->last_seen = r.at;
    slot->prefix = base.totals.ticks;
    slot->last = base.totals.ticks;
    slot->prefix_depth = base.depth;
    slot->last_depth = base.depth;
}

void CriticalPathBuilder::on_hop(const sim::TraceRecord& r) {
    const Tick span = r.at - static_cast<Tick>(r.c);
    blame_add(kLinkBlameBit | r.a, SegmentKind::kTransit, span);
    if (r.lineage == 0) return;
    Tick* slot = hop_ctx_.find(r.lineage);
    if (slot == nullptr) {
        if (hop_ctx_.size() >= kHopCtxCapacity) {
            ++report_.hop_ctx_evicted;
            return;
        }
        slot = &hop_ctx_[r.lineage];
    }
    *slot = r.at;
}

void CriticalPathBuilder::on_deliver(const sim::TraceRecord& r) {
    ++report_.deliveries;
    const Tick busy = static_cast<Tick>(r.b);
    const Tick sent = static_cast<Tick>(r.c);
    // Blame is chain-independent — priced from the record alone, so it
    // stays exact under pruning. The inbound span [sent, at - busy]
    // splits at the last hop when hop records are present.
    {
        const Tick handler_start = std::max(sent, r.at - busy);
        blame_add(r.node, SegmentKind::kHandler, r.at - handler_start);
        Tick h = handler_start;
        if (const Tick* hop = hop_ctx_.find(r.lineage))
            h = std::clamp(*hop, sent, handler_start);
        blame_add(r.node, SegmentKind::kTransit, h - sent);
        blame_add(r.node, SegmentKind::kQueueing, handler_start - h);
    }
    if (r.lineage == 0) return;
    ChainCtx ctx;
    LiveEntry* e = live_.find(r.lineage);
    if (e != nullptr) {
        ctx.root = e->root;
        ctx.root_start = e->root_start;
        ctx.end = e->prefix_end;
        ctx.depth = e->prefix_depth;
        ctx.totals.ticks = e->prefix;
    } else {
        // Root lineage (or a pruned child — live_pruned flags those):
        // the anchor makes the leg self-describing.
        ctx.root = r.lineage;
        ctx.root_start = sent;
        ctx.end = sent;
    }
    extend(ctx, r.at, busy, sent, /*is_delivery=*/true, SegmentKind::kQueueing,
           r.lineage);
    if (e != nullptr) {
        e->last = ctx.totals.ticks;
        e->last_end = ctx.end;
        e->last_depth = ctx.depth;
        e->last_seen = r.at;
    } else if (config_.anchor_root_deliveries) {
        LiveEntry& fresh = live_[r.lineage];
        fresh.root = ctx.root;
        fresh.root_start = ctx.root_start;
        fresh.prefix_end = ctx.root_start;
        fresh.last_end = ctx.end;
        fresh.last_seen = r.at;
        fresh.prefix = {};
        fresh.last = ctx.totals.ticks;
        fresh.prefix_depth = 0;
        fresh.last_depth = ctx.depth;
    }
    cur_valid_ = true;
    cur_at_ = r.at;
    cur_node_ = r.node;
    cur_lineage_ = r.lineage;
    cur_ctx_ = ctx;
    if (!has_witness_ || r.at > witness_.end) {
        has_witness_ = true;
        witness_ = ctx;
        witness_terminal_ = r.lineage;
        witness_node_ = r.node;
    }
    if (config_.top > 0) {
        TreeEntry* t = trees_.find(ctx.root);
        if (t == nullptr) {
            if (trees_.size() >= kMaxRoots) {
                ++report_.roots_skipped;
            } else {
                t = &trees_[ctx.root];
                t->root_start = ctx.root_start;
            }
        }
        if (t != nullptr) {
            t->deliveries += 1;
            if (t->deliveries == 1 || r.at > t->last_end) {
                t->last_end = r.at;
                t->terminal = r.lineage;
                t->terminal_node = r.node;
                t->depth = ctx.depth;
                t->totals = ctx.totals.ticks;
            }
        }
    }
}

void CriticalPathBuilder::on_timer(const sim::TraceRecord& r) {
    ++report_.timer_fires;
    const Tick busy = static_cast<Tick>(r.b);
    const Tick armed = static_cast<Tick>(r.c);
    const SegmentKind wait = timer_wait_kind(r.a);
    {
        const Tick handler_start = std::max(armed, r.at - busy);
        blame_add(r.node, SegmentKind::kHandler, r.at - handler_start);
        blame_add(r.node, wait, handler_start - armed);
    }
    if (r.lineage == 0) return;  // armed outside any handler: no chain
    ChainCtx ctx;
    LiveEntry* e = live_.find(r.lineage);
    if (e != nullptr) {
        ctx.root = e->root;
        ctx.root_start = e->root_start;
        ctx.end = e->last_end;
        ctx.depth = e->last_depth;
        ctx.totals.ticks = e->last;
    } else {
        ++report_.unanchored_timers;
        ctx.root = r.lineage;
        ctx.root_start = armed;
        ctx.end = armed;
    }
    extend(ctx, r.at, busy, armed, /*is_delivery=*/false, wait, r.lineage);
    if (e == nullptr) {
        e = &live_[r.lineage];
        e->root = ctx.root;
        e->root_start = ctx.root_start;
        e->prefix_end = ctx.root_start;
        e->prefix = {};
        e->prefix_depth = 0;
    }
    e->last = ctx.totals.ticks;
    e->last_end = ctx.end;
    e->last_depth = ctx.depth;
    e->last_seen = r.at;
    cur_valid_ = true;
    cur_at_ = r.at;
    cur_node_ = r.node;
    cur_lineage_ = r.lineage;
    cur_ctx_ = ctx;
}

void CriticalPathBuilder::add(const sim::TraceRecord& r) {
    ++report_.records;
    maybe_prune(r.at);
    switch (r.kind) {
        case sim::TraceKind::kSend: on_send(r); break;
        case sim::TraceKind::kHop: on_hop(r); break;
        case sim::TraceKind::kDeliver: on_deliver(r); break;
        case sim::TraceKind::kTimer: on_timer(r); break;
        default: break;
    }
}

CriticalPathReport CriticalPathBuilder::finish() {
    if (finished_) return report_;
    finished_ = true;
    report_.computed = true;
    report_.has_witness = has_witness_;
    if (has_witness_) {
        PathSummary& w = report_.witness;
        w.root = witness_.root;
        w.root_start = witness_.root_start;
        w.end = witness_.end;
        w.terminal = witness_terminal_;
        w.terminal_node = witness_node_;
        w.depth = witness_.depth;
        w.totals = witness_.totals;
        if (const TreeEntry* t = trees_.find(witness_.root))
            w.deliveries = t->deliveries;
    }
    report_.roots_tracked = trees_.size();
    if (config_.top > 0) {
        std::vector<PathSummary> all;
        all.reserve(trees_.size());
        for (const auto& e : trees_.raw_entries()) {
            if (!e.occupied) continue;
            const TreeEntry& t = e.value;
            PathSummary p;
            p.root = e.key;
            p.root_start = t.root_start;
            p.end = t.last_end;
            p.terminal = t.terminal;
            p.terminal_node = static_cast<NodeId>(t.terminal_node);
            p.depth = t.depth;
            p.deliveries = t.deliveries;
            p.totals.ticks = t.totals;
            all.push_back(p);
        }
        std::sort(all.begin(), all.end(), [](const PathSummary& a, const PathSummary& b) {
            if (a.latency() != b.latency()) return a.latency() > b.latency();
            return a.root < b.root;
        });
        if (all.size() > config_.top) all.resize(config_.top);
        report_.top = std::move(all);
    }
    std::vector<BlameEntry> nodes, links;
    for (const auto& e : blame_.raw_entries()) {
        if (!e.occupied) continue;
        BlameEntry b;
        b.key = e.key;
        b.totals.ticks = e.value;
        ((e.key & kLinkBlameBit) != 0 ? links : nodes).push_back(b);
    }
    const auto by_total = [](const BlameEntry& a, const BlameEntry& b) {
        if (a.totals.total() != b.totals.total())
            return a.totals.total() > b.totals.total();
        return a.key < b.key;
    };
    std::sort(nodes.begin(), nodes.end(), by_total);
    std::sort(links.begin(), links.end(), by_total);
    report_.node_blame = std::move(nodes);
    report_.link_blame = std::move(links);
    return report_;
}

std::size_t CriticalPathBuilder::memory_bytes() const {
    return sizeof(*this) + live_.memory_bytes() + trees_.memory_bytes() +
           hop_ctx_.memory_bytes() + blame_.memory_bytes();
}

bool critical_path(sim::RecordSource& src, const CriticalPathConfig& config,
                   CriticalPathReport& out, std::string* error,
                   std::size_t* peak_memory_bytes) {
    CriticalPathBuilder builder(config);
    std::size_t peak = builder.memory_bytes();
    if (!sim::drain(src, error, [&](const sim::TraceRecord& r) {
            builder.add(r);
            peak = std::max(peak, builder.memory_bytes());
        }))
        return false;
    out = builder.finish();
    if (peak_memory_bytes != nullptr) *peak_memory_bytes = peak;
    return true;
}

// ---- pass 2: waterfall --------------------------------------------------

namespace {

/// Index of the last record before `from` (exclusive) matching `pred`,
/// or npos. Linear backward scan — chain_records is already the small
/// filtered set.
template <typename Pred>
std::size_t rfind_before(std::span<const sim::TraceRecord> rs, std::size_t from,
                         Pred pred) {
    for (std::size_t i = from; i-- > 0;)
        if (pred(rs[i])) return i;
    return static_cast<std::size_t>(-1);
}

}  // namespace

PathWaterfall path_waterfall(std::span<const sim::TraceRecord> chain_records,
                             const PathSummary& path) {
    constexpr auto npos = static_cast<std::size_t>(-1);
    PathWaterfall wf;
    wf.summary = path;
    // Terminal completion record.
    std::size_t cur = rfind_before(
        chain_records, chain_records.size(), [&](const sim::TraceRecord& r) {
            return r.kind == sim::TraceKind::kDeliver && r.lineage == path.terminal &&
                   r.node == path.terminal_node && r.at == path.end;
        });
    std::vector<PathSegment> rev;  // collected terminal-first
    const auto push = [&rev](SegmentKind kind, Tick start, Tick end, NodeId node,
                             std::uint64_t lineage) {
        if (end <= start) return;
        rev.push_back(PathSegment{kind, start, end, node, lineage});
    };
    while (cur != npos) {
        const sim::TraceRecord& r = chain_records[cur];
        const Tick busy = static_cast<Tick>(r.b);
        const Tick anchor = static_cast<Tick>(r.c);
        const Tick handler_start = std::max(anchor, r.at - busy);
        push(SegmentKind::kHandler, handler_start, r.at, r.node, r.lineage);
        if (r.kind == sim::TraceKind::kTimer) {
            push(timer_wait_kind(r.a), anchor, handler_start, r.node, r.lineage);
            // The arming completion: same lineage, same node, at the
            // arming instant (the arming handler completed there).
            cur = rfind_before(chain_records, cur, [&](const sim::TraceRecord& p) {
                return (p.kind == sim::TraceKind::kDeliver ||
                        p.kind == sim::TraceKind::kTimer) &&
                       p.lineage == r.lineage && p.node == r.node && p.at <= anchor;
            });
            continue;
        }
        // Delivery leg: split [anchor, handler_start] at the last hop.
        const std::size_t hop =
            rfind_before(chain_records, cur, [&](const sim::TraceRecord& p) {
                return p.kind == sim::TraceKind::kHop && p.lineage == r.lineage &&
                       p.at >= anchor && p.at <= handler_start;
            });
        if (hop != npos) {
            const Tick h = chain_records[hop].at;
            push(SegmentKind::kQueueing, h, handler_start, r.node, r.lineage);
            push(SegmentKind::kTransit, anchor, h, r.node, r.lineage);
        } else {
            push(SegmentKind::kTransit, anchor, handler_start, r.node, r.lineage);
        }
        // The injection of this lineage, then its parent's completion.
        const std::size_t send =
            rfind_before(chain_records, cur, [&](const sim::TraceRecord& p) {
                return p.kind == sim::TraceKind::kSend && p.lineage == r.lineage;
            });
        if (send == npos) break;
        const sim::TraceRecord& s = chain_records[send];
        if (s.b == 0) {
            push(SegmentKind::kQueueing, path.root_start, s.at, s.node, r.lineage);
            break;
        }
        const std::size_t parent =
            rfind_before(chain_records, send + 1, [&](const sim::TraceRecord& p) {
                return (p.kind == sim::TraceKind::kDeliver ||
                        p.kind == sim::TraceKind::kTimer) &&
                       p.lineage == s.b && p.node == s.node && p.at <= s.at;
            });
        if (parent == npos) break;
        // A1 serialization gap between the parent's completion and the
        // deferred injection.
        push(SegmentKind::kQueueing, chain_records[parent].at, s.at, s.node, s.b);
        cur = parent;
    }
    std::reverse(rev.begin(), rev.end());
    if (rev.size() > kMaxPathSegments) {
        // Head/tail elision: keep the chain's start and finish, drop
        // the middle (totals in the summary stay exact).
        const std::size_t head = kMaxPathSegments / 2;
        const std::size_t tail = kMaxPathSegments - head;
        wf.elided = rev.size() - head - tail;
        std::vector<PathSegment> kept;
        kept.reserve(head + tail);
        kept.insert(kept.end(), rev.begin(), rev.begin() + static_cast<std::ptrdiff_t>(head));
        kept.insert(kept.end(), rev.end() - static_cast<std::ptrdiff_t>(tail), rev.end());
        rev = std::move(kept);
    }
    wf.segments = std::move(rev);
    return wf;
}

// ---- rendering ----------------------------------------------------------

namespace {

void append_totals(std::string& out, const SegmentTotals& t) {
    for (unsigned k = 0; k < kSegmentKindCount; ++k) {
        if (k != 0) out += " ";
        out += cost::path_segment_kind_name(static_cast<cost::PathSegmentKind>(k));
        out += "=";
        out += std::to_string(t.ticks[k]);
    }
}

void append_path_line(std::string& out, const PathSummary& p) {
    out += "latency=";
    out += std::to_string(p.latency());
    out += " root=";
    out += std::to_string(p.root);
    out += " span=[";
    out += std::to_string(p.root_start);
    out += ",";
    out += std::to_string(p.end);
    out += "] depth=";
    out += std::to_string(p.depth);
    out += " terminal=";
    out += std::to_string(p.terminal);
    out += "@";
    out += p.terminal_node == kNoNode ? std::string("-") : std::to_string(p.terminal_node);
    if (p.deliveries != 0) {
        out += " deliveries=";
        out += std::to_string(p.deliveries);
    }
    out += "\n    ";
    append_totals(out, p.totals);
    out += "\n";
}

constexpr std::size_t kBlameShown = 10;

void append_blame(std::string& out, const char* title,
                  const std::vector<BlameEntry>& blame) {
    out += title;
    if (blame.empty()) {
        out += " (none)\n";
        return;
    }
    out += "\n";
    const std::size_t shown = std::min(blame.size(), kBlameShown);
    for (std::size_t i = 0; i < shown; ++i) {
        const BlameEntry& b = blame[i];
        out += "  ";
        if ((b.key & kLinkBlameBit) != 0) {
            out += "edge ";
            out += std::to_string(b.key & ~kLinkBlameBit);
        } else {
            out += "node ";
            out += std::to_string(b.key);
        }
        out += ": total=";
        out += std::to_string(b.totals.total());
        out += " ";
        append_totals(out, b.totals);
        out += "\n";
    }
    if (blame.size() > shown) {
        out += "  ... ";
        out += std::to_string(blame.size() - shown);
        out += " more\n";
    }
}

}  // namespace

std::string format_critical_path(const CriticalPathReport& report) {
    std::string out;
    if (!report.has_witness) {
        out += "critical path: no deliveries in trace\n";
    } else {
        out += "critical path: ";
        append_path_line(out, report.witness);
    }
    if (!report.top.empty()) {
        out += "slowest paths:\n";
        for (std::size_t i = 0; i < report.top.size(); ++i) {
            out += "  ";
            out += std::to_string(i + 1);
            out += ". ";
            append_path_line(out, report.top[i]);
        }
    }
    append_blame(out, "node blame:", report.node_blame);
    append_blame(out, "link blame:", report.link_blame);
    out += "records=";
    out += std::to_string(report.records);
    out += " deliveries=";
    out += std::to_string(report.deliveries);
    out += " timer_fires=";
    out += std::to_string(report.timer_fires);
    out += " roots=";
    out += std::to_string(report.roots_tracked);
    out += "\nconfidence: unanchored_sends=";
    out += std::to_string(report.unanchored_sends);
    out += " unanchored_timers=";
    out += std::to_string(report.unanchored_timers);
    out += " clamped=";
    out += std::to_string(report.clamped);
    out += " pruned=";
    out += std::to_string(report.live_pruned);
    out += " skipped=";
    out += std::to_string(report.roots_skipped);
    out += " evicted=";
    out += std::to_string(report.hop_ctx_evicted + report.blame_evicted);
    out += "\n";
    return out;
}

std::string format_waterfall(const PathWaterfall& wf) {
    std::string out = "waterfall ";
    append_path_line(out, wf.summary);
    const Tick t0 = wf.summary.root_start;
    for (const PathSegment& s : wf.segments) {
        out += "  +";
        out += std::to_string(s.start - t0);
        out += " ..+";
        out += std::to_string(s.end - t0);
        out += " ";
        out += cost::path_segment_kind_name(s.kind);
        out += " (";
        out += std::to_string(s.end - s.start);
        out += ") lin=";
        out += std::to_string(s.lineage);
        out += " node=";
        out += s.node == kNoNode ? std::string("-") : std::to_string(s.node);
        out += "\n";
    }
    if (wf.elided != 0) {
        out += "  (";
        out += std::to_string(wf.elided);
        out += " middle segments elided; totals above are exact)\n";
    }
    return out;
}

void append_chrome_path_overlay(std::string& out, const PathWaterfall& wf) {
    constexpr int kPathPid = 3;
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
    out += std::to_string(kPathPid);
    out += ",\"args\":{\"name\":\"critical path\"}},\n";
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":";
    out += std::to_string(kPathPid);
    out += ",\"tid\":0,\"args\":{\"name\":\"root ";
    out += std::to_string(wf.summary.root);
    out += "\"}},\n";
    for (const PathSegment& s : wf.segments) {
        out += "{\"name\":";
        out += json_quote(cost::path_segment_kind_name(s.kind));
        out += ",\"ph\":\"X\",\"pid\":";
        out += std::to_string(kPathPid);
        out += ",\"tid\":0,\"ts\":";
        out += std::to_string(s.start);
        out += ",\"dur\":";
        out += std::to_string(s.end - s.start);
        out += ",\"args\":{\"lin\":";
        out += std::to_string(s.lineage);
        out += "}},\n";
    }
}

cost::CriticalPathStats to_path_stats(const CriticalPathReport& report) {
    cost::CriticalPathStats stats;
    stats.computed = report.computed && report.has_witness;
    const auto fold = [](const PathSummary& p) {
        cost::CriticalPathStats::Path out;
        out.root = p.root;
        out.root_start = p.root_start;
        out.end = p.end;
        out.terminal = p.terminal;
        out.terminal_node = p.terminal_node;
        out.depth = p.depth;
        out.segments = p.totals.ticks;
        return out;
    };
    stats.witness = fold(report.witness);
    stats.top.reserve(report.top.size());
    for (const PathSummary& p : report.top) stats.top.push_back(fold(p));
    stats.deliveries = report.deliveries;
    stats.unanchored = report.unanchored_sends + report.unanchored_timers;
    stats.clamped = report.clamped;
    stats.pruned = report.live_pruned;
    return stats;
}

}  // namespace fastnet::obs
