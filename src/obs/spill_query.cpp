#include "obs/spill_query.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace fastnet::obs {

namespace {

constexpr char kIndexMagic[8] = {'F', 'N', 'L', 'I', 'D', 'X', '0', '1'};

/// Flush threshold for the streaming exporters' append buffer.
constexpr std::size_t kFlushBytes = 1 << 16;

bool fail(std::string* error, const std::string& message) {
    if (error) *error = message;
    return false;
}

/// How a streaming pass ends: false (with the merge's decode error) when
/// a segment turned out corrupt part-way, so no query reports success
/// over a partial stream.
bool finished(const sim::SpillMerge& merge, std::string* error) {
    return merge.error().empty() || fail(error, merge.error());
}

void put_u64(std::string& buf, std::uint64_t v) {
    for (unsigned i = 0; i < 8; ++i) buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint64_t get_u64(const unsigned char* p) {
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

}  // namespace

bool spill_canonical_json(const std::vector<std::string>& paths, const ExportMeta& meta,
                          std::ostream& os, std::string* error) {
    sim::SpillMerge merge;
    if (!merge.open(paths, error)) return false;
    const sim::SpillStats& t = merge.totals();
    std::string buf =
        canonical_trace_header(meta, t.total_recorded, t.dropped, t.detail_dropped);
    sim::TraceRecord r;
    bool first = true;
    while (merge.next(r)) {
        // Separator before each record but the first, newline after the
        // last: the same bytes canonical_trace_json emits in one pass.
        if (!first) buf += ",\n";
        first = false;
        append_canonical_record(buf, r);
        if (buf.size() >= kFlushBytes) {
            os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
            buf.clear();
        }
    }
    if (!finished(merge, error)) return false;
    if (!first) buf += "\n";
    buf += canonical_trace_footer();
    os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    if (!os) return fail(error, "write failed while streaming canonical export");
    return true;
}

bool spill_chrome_json(const std::vector<std::string>& paths, const ExportMeta& meta,
                       std::ostream& os, std::string* error) {
    sim::SpillMerge merge;
    if (!merge.open(paths, error)) return false;
    std::string buf = chrome_trace_header(meta);
    sim::TraceRecord r;
    while (merge.next(r)) {
        append_chrome_record(buf, r);
        if (buf.size() >= kFlushBytes) {
            os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
            buf.clear();
        }
    }
    if (!finished(merge, error)) return false;
    buf += chrome_trace_footer(meta);
    os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    if (!os) return fail(error, "write failed while streaming chrome export");
    return true;
}

bool spill_collect(const std::vector<std::string>& paths,
                   const std::function<bool(const sim::TraceRecord&)>& keep,
                   std::vector<sim::TraceRecord>& out, std::string* error) {
    sim::SpillMerge merge;
    if (!merge.open(paths, error)) return false;
    sim::TraceRecord r;
    while (merge.next(r))
        if (keep(r)) out.push_back(r);
    return finished(merge, error);
}

bool spill_critical_path(const std::vector<std::string>& paths,
                         const CriticalPathConfig& config, CriticalPathReport& out,
                         std::string* error, std::size_t* peak_memory_bytes) {
    sim::SpillMerge merge;
    if (!merge.open(paths, error)) return false;
    CriticalPathBuilder builder(config);
    std::size_t peak = builder.memory_bytes();
    sim::TraceRecord r;
    while (merge.next(r)) {
        builder.add(r);
        peak = std::max(peak, builder.memory_bytes());
    }
    if (!finished(merge, error)) return false;
    out = builder.finish();
    if (peak_memory_bytes != nullptr) *peak_memory_bytes = peak;
    return true;
}

bool spill_chain_records(const std::vector<std::string>& paths, const LineageIndex& index,
                         std::uint64_t terminal, std::vector<sim::TraceRecord>& out,
                         std::string* error) {
    std::vector<std::uint64_t> chain = index.ancestry(terminal);
    std::sort(chain.begin(), chain.end());
    return spill_collect(
        paths,
        [&chain](const sim::TraceRecord& r) {
            return std::binary_search(chain.begin(), chain.end(), r.lineage);
        },
        out, error);
}

bool spill_summarize(const std::vector<std::string>& paths, SpillSummary& out,
                     std::string* error) {
    sim::SpillMerge merge;
    if (!merge.open(paths, error)) return false;
    out = SpillSummary{};
    out.stats = merge.totals();
    out.files = merge.file_count();
    out.truncated = merge.truncated();
    sim::TraceRecord r;
    while (merge.next(r)) {
        if (out.records == 0) out.first_at = r.at;
        out.last_at = r.at;
        ++out.records;
        out.counts[static_cast<std::size_t>(r.kind)] += 1;
    }
    return finished(merge, error);
}

bool LineageIndex::build(const std::vector<std::string>& paths, std::string* error) {
    pairs_.clear();
    sim::SpillMerge merge;
    if (!merge.open(paths, error)) return false;
    sim::TraceRecord r;
    while (merge.next(r)) {
        if (r.kind != sim::TraceKind::kSend) continue;
        pairs_.emplace_back(r.lineage, r.b);
    }
    if (!finished(merge, error)) {
        pairs_.clear();
        return false;
    }
    // First kSend in merge order wins — the relation lineage_ancestry
    // walks. stable_sort keeps the stream order within equal lineages.
    std::stable_sort(pairs_.begin(), pairs_.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    pairs_.erase(std::unique(pairs_.begin(), pairs_.end(),
                             [](const auto& a, const auto& b) { return a.first == b.first; }),
                 pairs_.end());
    return true;
}

bool LineageIndex::save(const std::string& path, std::string* error) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return fail(error, "cannot create lineage index " + path);
    std::string buf;
    buf.append(kIndexMagic, sizeof(kIndexMagic));
    put_u64(buf, pairs_.size());
    for (const auto& [lineage, parent] : pairs_) {
        put_u64(buf, lineage);
        put_u64(buf, parent);
    }
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    return out ? true : fail(error, "write failed for lineage index " + path);
}

bool LineageIndex::load(const std::string& path, std::string* error) {
    pairs_.clear();
    std::ifstream in(path, std::ios::binary);
    if (!in) return fail(error, "cannot open lineage index " + path);
    unsigned char header[sizeof(kIndexMagic) + 8];
    if (!in.read(reinterpret_cast<char*>(header), sizeof(header)))
        return fail(error, path + ": not a lineage index (short header)");
    if (std::memcmp(header, kIndexMagic, sizeof(kIndexMagic)) != 0)
        return fail(error, path + ": not a lineage index (bad magic)");
    const std::uint64_t count = get_u64(header + sizeof(kIndexMagic));
    pairs_.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        unsigned char entry[16];
        if (!in.read(reinterpret_cast<char*>(entry), sizeof(entry)))
            return fail(error, path + ": truncated lineage index");
        pairs_.emplace_back(get_u64(entry), get_u64(entry + 8));
    }
    return true;
}

std::uint64_t LineageIndex::parent_of(std::uint64_t lineage) const {
    auto it = std::lower_bound(pairs_.begin(), pairs_.end(), lineage,
                               [](const auto& p, std::uint64_t l) { return p.first < l; });
    return it != pairs_.end() && it->first == lineage ? it->second : 0;
}

std::vector<std::uint64_t> LineageIndex::ancestry(std::uint64_t lineage) const {
    std::vector<std::uint64_t> chain;
    std::uint64_t cur = lineage;
    while (cur != 0) {
        // Cycle guard: real ids cannot cycle, a corrupt file must not
        // hang us. A chain longer than the index has entries must have
        // revisited one — O(1) per step, so million-deep chains (the
        // ring election at scale) stay linear.
        if (chain.size() > pairs_.size()) break;
        chain.push_back(cur);
        cur = parent_of(cur);
    }
    std::reverse(chain.begin(), chain.end());
    return chain;
}

std::string lineage_index_path(const std::string& spill_path) {
    std::error_code ec;
    if (std::filesystem::is_directory(spill_path, ec))
        return (std::filesystem::path(spill_path) / "lineage.fnlidx").string();
    return spill_path + ".fnlidx";
}

}  // namespace fastnet::obs
