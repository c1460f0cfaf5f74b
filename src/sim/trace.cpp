#include "sim/trace.hpp"

#include <algorithm>
#include <ostream>

#include "common/expect.hpp"
#include "sim/trace_spill.hpp"

namespace fastnet::sim {

const char* trace_kind_name(TraceKind k) {
    switch (k) {
        case TraceKind::kStart: return "start";
        case TraceKind::kSend: return "send";
        case TraceKind::kHop: return "hop";
        case TraceKind::kDeliver: return "deliver";
        case TraceKind::kTimer: return "timer";
        case TraceKind::kLinkChange: return "link";
        case TraceKind::kDrop: return "drop";
        case TraceKind::kCrash: return "crash";
        case TraceKind::kRestart: return "restart";
        case TraceKind::kDup: return "dup";
        case TraceKind::kPhase: return "phase";
        case TraceKind::kViolation: return "violation";
        case TraceKind::kCallEvent: return "call";
        case TraceKind::kCustom: return "custom";
    }
    return "?";
}

bool trace_kind_from_name(std::string_view name, TraceKind& out) {
    for (unsigned k = 0; k < kTraceKindCount; ++k) {
        const auto kind = static_cast<TraceKind>(k);
        if (name == trace_kind_name(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

const char* drop_reason_name(DropReason r) {
    switch (r) {
        case DropReason::kNone: return "none";
        case DropReason::kInactiveLink: return "inactive_link";
        case DropReason::kStaleEpoch: return "stale_epoch";
        case DropReason::kInjectedLoss: return "injected_loss";
        case DropReason::kNoMatch: return "no_match";
        case DropReason::kEmptyHeader: return "empty_header";
    }
    return "?";
}

Trace::Trace(std::size_t capacity, std::size_t detail_capacity)
    : capacity_(capacity), detail_capacity_(detail_capacity) {
    FASTNET_EXPECTS(capacity >= 1);
    ring_.reserve(std::min<std::size_t>(capacity, 1024));
}

Trace::~Trace() = default;
Trace::Trace(Trace&&) noexcept = default;
Trace& Trace::operator=(Trace&&) noexcept = default;

void Trace::push(const RingRecord& rec) {
    ++count_;
    // With spill enabled the ring drains before it fills, so only a
    // plain ring ever overwrites.
    if (ring_.size() < capacity_) {
        ring_.push_back(rec);
        return;
    }
    ring_[next_] = rec;
    next_ = next_ + 1 == capacity_ ? 0 : next_ + 1;
}

void Trace::record(Tick at, NodeId node, TraceKind kind, TraceArgs args) {
    if (!enabled(kind)) return;
    if (spill_ && ring_.size() >= drain_records_) flush_spill();
    RingRecord rec;
    rec.at = at;
    rec.node = node;
    rec.kind = kind;
    rec.flag = args.flag;
    rec.lineage = args.lineage;
    rec.a = args.a;
    rec.b = args.b;
    rec.c = args.c;
    push(rec);
}

void Trace::record_detail(Tick at, NodeId node, TraceKind kind, std::string_view detail,
                          TraceArgs args) {
    if (!enabled(kind)) return;
    if (spill_ && ring_.size() >= drain_records_) flush_spill();
    RingRecord rec;
    rec.at = at;
    rec.node = node;
    rec.kind = kind;
    rec.flag = args.flag;
    rec.lineage = args.lineage;
    rec.a = args.a;
    rec.b = args.b;
    rec.c = args.c;
    if (!detail.empty()) {
        // With spill enabled a full arena drains to disk instead of
        // dropping the detail (only a single over-budget string still
        // cannot be stored).
        if (spill_ && arena_.size() + detail.size() > detail_capacity_ && !ring_.empty())
            flush_spill();
        if (arena_.size() + detail.size() <= detail_capacity_) {
            rec.detail_at = static_cast<std::uint32_t>(arena_.size());
            rec.detail_len = static_cast<std::uint32_t>(detail.size());
            arena_.insert(arena_.end(), detail.begin(), detail.end());
        } else {
            ++detail_dropped_;
        }
    }
    push(rec);
}

void Trace::set_enabled(TraceKind kind, bool on) {
    const auto bit = static_cast<std::uint16_t>(1u << static_cast<unsigned>(kind));
    if (on)
        enabled_mask_ |= bit;
    else
        enabled_mask_ &= static_cast<std::uint16_t>(~bit);
}

bool Trace::enabled(TraceKind kind) const {
    return (enabled_mask_ >> static_cast<unsigned>(kind)) & 1u;
}

TraceRecord Trace::materialize(const RingRecord& r) const {
    TraceRecord out;
    out.at = r.at;
    out.node = r.node;
    out.kind = r.kind;
    out.flag = r.flag;
    out.lineage = r.lineage;
    out.a = r.a;
    out.b = r.b;
    out.c = r.c;
    if (r.detail_len != 0) out.detail.assign(arena_.data() + r.detail_at, r.detail_len);
    return out;
}

std::vector<TraceRecord> Trace::snapshot() const {
    std::vector<TraceRecord> out;
    out.reserve(size());
    if (count_ <= capacity_) {
        for (const RingRecord& r : ring_) out.push_back(materialize(r));
    } else {
        // Ring wrapped: oldest record sits at next_.
        for (std::size_t i = next_; i < ring_.size(); ++i) out.push_back(materialize(ring_[i]));
        for (std::size_t i = 0; i < next_; ++i) out.push_back(materialize(ring_[i]));
    }
    return out;
}

std::vector<TraceRecord> Trace::snapshot(NodeId node) const {
    std::vector<TraceRecord> all = snapshot();
    std::vector<TraceRecord> out;
    for (auto& r : all)
        if (r.node == node) out.push_back(std::move(r));
    return out;
}

void Trace::clear() {
    ring_.clear();
    arena_.clear();
    next_ = 0;
    count_ = 0;
    detail_dropped_ = 0;
    spill_.reset();
    spill_path_.clear();
    drain_records_ = 0;
    spilled_records_ = 0;
    spill_segments_ = 0;
    spilled_bytes_ = 0;
}

bool Trace::enable_spill(const TraceSpillConfig& config, std::string* error) {
    // Spill must see every record from the first one: a ring that
    // already wrapped has lost records no segment can recover.
    FASTNET_EXPECTS(count_ == 0 && !spill_);
    auto writer = std::make_unique<SpillWriter>();
    if (!writer->open(config.path, config.shard, error)) return false;
    spill_ = std::move(writer);
    spill_path_ = config.path;
    drain_records_ = capacity_;
    if (config.resident_budget_bytes != 0) {
        const std::size_t budget = config.resident_budget_bytes;
        const std::size_t for_ring =
            budget > detail_capacity_ ? budget - detail_capacity_ : 0;
        const std::size_t budget_records = for_ring / sizeof(RingRecord);
        FASTNET_EXPECTS(budget_records >= 1);
        drain_records_ = std::min(capacity_, budget_records);
    }
    // Reserve the exact resident footprint once so resident_bytes() is a
    // true fixed bound (vector growth would otherwise overshoot; the
    // constructor's default reserve may already exceed a tight budget,
    // so release it first — the ring is empty here).
    if (ring_.capacity() > drain_records_) std::vector<RingRecord>().swap(ring_);
    ring_.reserve(drain_records_);
    arena_.reserve(detail_capacity_);
    return true;
}

void Trace::flush_spill() {
    if (!spill_ || ring_.empty()) return;
    // While spilling the ring never overwrites: it holds the last
    // size() records recorded, so ring_[i] has seq count_ - size() + i.
    const std::uint64_t first_seq = count_ - ring_.size();
    if (spill_->write_segment(ring_, std::string_view(arena_.data(), arena_.size()), first_seq))
        spilled_records_ += ring_.size();
    spill_segments_ = spill_->segments();
    spilled_bytes_ = spill_->bytes_written();
    ring_.clear();
    arena_.clear();
}

bool Trace::finish_spill() {
    if (!spill_) return true;
    flush_spill();
    SpillStats stats;
    stats.total_recorded = count_;
    stats.dropped = dropped();
    stats.detail_dropped = detail_dropped_;
    stats.spilled_records = spilled_records_;
    const bool ok = spill_->finish(stats);
    spilled_bytes_ = spill_->bytes_written();
    spill_.reset();
    drain_records_ = 0;
    return ok;
}

std::size_t Trace::resident_bytes() const {
    return ring_.capacity() * sizeof(RingRecord) + arena_.capacity();
}

std::string format_record(const TraceRecord& r) {
    std::string line = "[t=" + std::to_string(r.at) + "] ";
    line += r.node == kNoNode ? std::string("net") : "node " + std::to_string(r.node);
    line += ' ';
    line += trace_kind_name(r.kind);
    if (r.lineage != 0) line += " lin=" + std::to_string(r.lineage);
    switch (r.kind) {
        case TraceKind::kSend:
            line += " header_len=" + std::to_string(r.a);
            if (r.b != 0) line += " parent=" + std::to_string(r.b);
            break;
        case TraceKind::kHop:
            line += " edge=" + std::to_string(r.a) + " hops=" + std::to_string(r.b);
            if (r.c != 0) line += " tx_at=" + std::to_string(r.c);
            break;
        case TraceKind::kDeliver:
            line += " hops=" + std::to_string(r.a) + " busy=" + std::to_string(r.b);
            if (r.c != 0) line += " sent_at=" + std::to_string(r.c);
            break;
        case TraceKind::kTimer:
            line += " cookie=" + std::to_string(r.a) + " busy=" + std::to_string(r.b);
            if (r.c != 0) line += " armed_at=" + std::to_string(r.c);
            break;
        case TraceKind::kLinkChange:
            line += " edge=" + std::to_string(r.a);
            line += r.flag ? " up" : " down";
            break;
        case TraceKind::kDrop:
            if (r.a != kNoEdge) line += " edge=" + std::to_string(r.a);
            line += " reason=";
            line += drop_reason_name(static_cast<DropReason>(r.flag));
            break;
        case TraceKind::kDup:
            line += " edge=" + std::to_string(r.a) + " copy_id=" + std::to_string(r.b);
            break;
        case TraceKind::kCrash:
        case TraceKind::kRestart:
            line += " incarnation=" + std::to_string(r.a);
            break;
        case TraceKind::kPhase:
            line += " phase=" + std::to_string(r.a);
            break;
        case TraceKind::kViolation:
            line += " monitor=" + std::to_string(r.a);
            break;
        case TraceKind::kCallEvent:
            line += " call=" + std::to_string(r.a >> 32) + "." +
                    std::to_string(r.a & 0xffffffffULL);
            line += " event=" + std::to_string(r.b);
            if (r.flag != 0) line += " attempt=" + std::to_string(r.flag);
            break;
        case TraceKind::kStart:
        case TraceKind::kCustom:
            break;
    }
    if (!r.detail.empty()) {
        line += ": ";
        line += r.detail;
    }
    return line;
}

void Trace::print(std::ostream& os) const {
    for (const TraceRecord& r : snapshot()) os << format_record(r) << '\n';
}

}  // namespace fastnet::sim
