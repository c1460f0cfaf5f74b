#include "obs/trace_query.hpp"

#include <algorithm>

#include "common/expect.hpp"
#include "sim/trace_spill.hpp"

namespace fastnet::obs {

bool TraceFilter::matches(const sim::TraceRecord& r) const {
    return (!node || r.node == *node) && (!kind || r.kind == *kind) &&
           (!lineage || r.lineage == *lineage) && (!from || r.at >= *from) &&
           (!to || r.at <= *to);
}

bool filter_records(sim::RecordSource& src, const TraceFilter& f,
                    std::vector<sim::TraceRecord>& out, std::string* error) {
    out.clear();
    return sim::drain(src, error, [&](const sim::TraceRecord& r) {
        if (f.matches(r)) out.push_back(r);
    });
}

void LineageIndex::finish() {
    // First send in stream order wins — the relation lineage_ancestry
    // walks. stable_sort keeps the stream order within equal lineages.
    std::stable_sort(pairs_.begin(), pairs_.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    pairs_.erase(std::unique(pairs_.begin(), pairs_.end(),
                             [](const auto& a, const auto& b) { return a.first == b.first; }),
                 pairs_.end());
    finished_ = true;
}

bool LineageIndex::build(sim::RecordSource& src, std::string* error) {
    pairs_.clear();
    const bool ok = sim::drain(src, error, [this](const sim::TraceRecord& r) { add(r); });
    if (!ok) pairs_.clear();
    finish();
    return ok;
}

bool LineageIndex::build(const std::vector<std::string>& paths, std::string* error) {
    sim::SpillMerge merge;
    return merge.open(paths, error) && build(merge, error);
}

std::uint64_t LineageIndex::parent_of(std::uint64_t lineage) const {
    FASTNET_EXPECTS_MSG(finished_, "LineageIndex queried before finish()");
    auto it = std::lower_bound(pairs_.begin(), pairs_.end(), lineage,
                               [](const auto& p, std::uint64_t l) { return p.first < l; });
    return it != pairs_.end() && it->first == lineage ? it->second : 0;
}

std::vector<std::uint64_t> LineageIndex::ancestry(std::uint64_t lineage) const {
    std::vector<std::uint64_t> chain;
    std::uint64_t cur = lineage;
    // Every lineage on a walk but the root has an entry, so a walk longer
    // than the index revisited one. Real ids cannot cycle; a corrupt or
    // hand-edited trace must not hang us. O(1) per step, so million-deep
    // chains (the ring election at scale) stay linear.
    while (cur != 0 && chain.size() <= pairs_.size()) {
        chain.push_back(cur);
        cur = parent_of(cur);
    }
    if (cur != 0) {
        // Cut the cycle where its first lineage repeats, as
        // lineage_ancestry does: the tail lies on the cycle, which gives
        // its period, and the first lineage the period repeats starts it.
        std::size_t period = 1;
        while (chain[chain.size() - 1 - period] != chain.back()) ++period;
        std::size_t start = 0;
        while (chain[start] != chain[start + period]) ++start;
        chain.resize(start + period);
    }
    std::reverse(chain.begin(), chain.end());
    return chain;
}

bool chain_records(sim::RecordSource& src, std::vector<std::uint64_t> lineages,
                   std::vector<sim::TraceRecord>& out, std::string* error) {
    std::sort(lineages.begin(), lineages.end());
    out.clear();
    return sim::drain(src, error, [&](const sim::TraceRecord& r) {
        if (r.lineage != 0 && std::binary_search(lineages.begin(), lineages.end(), r.lineage))
            out.push_back(r);
    });
}

std::vector<std::uint64_t> lineage_ancestry(std::span<const sim::TraceRecord> records,
                                            std::uint64_t lineage) {
    const auto parent_of = [records](std::uint64_t l) -> std::uint64_t {
        for (const sim::TraceRecord& r : records)
            if (r.kind == sim::TraceKind::kSend && r.lineage == l) return r.b;
        return 0;
    };
    std::vector<std::uint64_t> chain;
    std::uint64_t cur = lineage;
    while (cur != 0) {
        // Cycle guard: lineage ids are assigned monotonically so a real
        // trace cannot cycle, but a hand-edited file must not hang us.
        if (std::find(chain.begin(), chain.end(), cur) != chain.end()) break;
        chain.push_back(cur);
        cur = parent_of(cur);
    }
    std::reverse(chain.begin(), chain.end());
    return chain;
}

bool summarize(sim::RecordSource& src, TraceSummary& out, std::string* error) {
    out = TraceSummary{};
    return sim::drain(src, error, [&out](const sim::TraceRecord& r) {
        if (out.records == 0) out.first_at = r.at;
        out.last_at = r.at;
        ++out.records;
        out.counts[static_cast<std::size_t>(r.kind)] += 1;
    });
}

bool crash_episodes(sim::RecordSource& src, std::vector<CrashEpisode>& out,
                    std::string* error) {
    out.clear();
    const bool ok = sim::drain(src, error, [&out](const sim::TraceRecord& r) {
        // Every episode opened by an earlier crash sees this record.
        for (CrashEpisode& ep : out) {
            if (ep.restarted_at == kNever) {
                if (r.kind == sim::TraceKind::kDrop) ++ep.drops_while_down;
                if (r.kind == sim::TraceKind::kRestart && r.node == ep.node)
                    ep.restarted_at = r.at;
                continue;
            }
            ep.settled_at = r.at;
            if (r.kind == sim::TraceKind::kDeliver && r.node == ep.node)
                ++ep.deliveries_after_restart;
        }
        if (r.kind == sim::TraceKind::kCrash)
            out.push_back(CrashEpisode{.node = r.node, .crashed_at = r.at});
    });
    for (CrashEpisode& ep : out)
        if (ep.restarted_at != kNever && ep.settled_at == kNever)
            ep.settled_at = ep.restarted_at;
    return ok;
}

std::string format_records(std::span<const sim::TraceRecord> records) {
    std::string out;
    for (const sim::TraceRecord& r : records) {
        out += sim::format_record(r);
        out += '\n';
    }
    return out;
}

std::string format_reconvergence(std::span<const CrashEpisode> episodes) {
    if (episodes.empty()) return "no crashes in trace\n";
    std::string out;
    for (const CrashEpisode& ep : episodes) {
        out += "node " + std::to_string(ep.node) + " crashed at t=" +
               std::to_string(ep.crashed_at);
        if (ep.restarted_at == kNever) {
            out += ", never restarted";
        } else {
            out += ", restarted at t=" + std::to_string(ep.restarted_at) + " (down " +
                   std::to_string(ep.restarted_at - ep.crashed_at) + " ticks)";
        }
        out += "; drops while down: " + std::to_string(ep.drops_while_down);
        if (ep.restarted_at != kNever) {
            out += "; deliveries after restart: " +
                   std::to_string(ep.deliveries_after_restart);
            out += "; last trace activity t=" + std::to_string(ep.settled_at);
        }
        out += '\n';
    }
    return out;
}

}  // namespace fastnet::obs
