// fastnet_trace: inspect traces from the command line.
//
// Reads a canonical trace export (see src/obs/trace_export.hpp), a trace
// spill file or a directory of per-shard spill files (see
// src/sim/trace_spill.hpp), and filters, summarizes or causally
// reconstructs it with the query API of src/obs/trace_query.hpp — what
// is diagnosable in-process is diagnosable from the files alone.
// `--check` validates either export format (canonical or Chrome
// trace-event JSON) or spill data, and is what the TraceSmoke ctest runs
// against freshly exported files.
//
//   fastnet_trace trace.json                      # print all records
//   fastnet_trace trace.json --node 3 --kind drop # filter
//   fastnet_trace trace.json --lineage 17         # one lineage's records
//   fastnet_trace trace.json --chain 17           # full causal chain
//   fastnet_trace trace.json --summary            # per-kind counts
//   fastnet_trace trace.json --reconvergence      # crash/recovery timeline
//   fastnet_trace trace.json --violations         # violations + causal chains
//   fastnet_trace trace.json --calls              # per-call leg reconstruction
//   fastnet_trace trace.json --check              # schema validation only
//
// Every mode reads FILE as one record stream (sim::RecordSource): an
// export is loaded once, spill data streams the deterministic merge of
// its segments. So each mode is written once, gives the same answer for
// a run's export and its spill files, and holds no more of a spilled
// trace than its answer. The causal modes build the lineage index in
// memory, during a pass they make anyway. One mode runs per call: the
// first of --check, --critical-path, --chain, --reconvergence, --calls,
// --violations and --summary that is given, else the filter.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/critical_path.hpp"
#include "obs/json.hpp"
#include "obs/trace_export.hpp"
#include "obs/trace_query.hpp"
#include "paris/call_setup.hpp"
#include "sim/record_source.hpp"
#include "sim/trace_spill.hpp"

using namespace fastnet;

namespace {

int usage(const char* argv0) {
    std::cerr << "usage: " << argv0
              << " FILE [--check] [--summary] [--reconvergence] [--violations]\n"
                 "       [--calls] [--node N] [--kind NAME] [--lineage L] [--from T]\n"
                 "       [--to T] [--chain L]\n"
                 "       [--critical-path] [--top N] [--waterfall] [--flame OUT]\n"
                 "  --calls groups call-event records into per-call leg timelines\n"
                 "  (combines with --node/--from/--to to narrow the set)\n"
                 "  --critical-path prices end-to-end latency: the witness chain to\n"
                 "  the last delivery, per-segment attribution, top-N slowest roots\n"
                 "  and per-node/per-link blame; --waterfall prints the winning\n"
                 "  chain leg by leg, --flame OUT writes it as a Chrome trace flame\n"
                 "  FILE may be a canonical export, a .fnspill file, or a directory\n"
                 "  of per-shard spill files (queries stream the merged records);\n"
                 "  --summary also accepts a metrics JSON export (profile + trace)\n";
    return 2;
}

bool read_file(const std::string& path, std::string& out) {
    std::ifstream f(path, std::ios::binary);
    if (!f) return false;
    std::ostringstream ss;
    ss << f.rdbuf();
    out = ss.str();
    return static_cast<bool>(f);
}

/// Validates either export format, detected by its top-level marker.
int run_check(const std::string& path, const std::string& text) {
    obs::JsonValue doc;
    std::string error;
    if (!obs::json_parse(text, doc, &error)) {
        std::cerr << path << ": invalid JSON: " << error << "\n";
        return 1;
    }
    const bool is_chrome = doc.is_object() && doc.find("traceEvents") != nullptr;
    const bool ok = is_chrome ? obs::check_chrome(text, &error)
                              : obs::check_canonical(text, &error);
    if (!ok) {
        std::cerr << path << ": invalid " << (is_chrome ? "chrome" : "canonical")
                  << " trace: " << error << "\n";
        return 1;
    }
    std::cout << path << ": valid " << (is_chrome ? "chrome" : "canonical")
              << " trace\n";
    return 0;
}

/// FILE's records. A spill file or directory streams the merge of its
/// segments; a canonical export is loaded once and read from memory.
struct Input {
    std::string path;
    std::vector<std::string> files;  ///< Spill inputs; empty for an export.
    obs::LoadedTrace trace;          ///< For spill input only meta.name (the path).
    sim::SpillMerge merge;
    std::optional<sim::SpanSource> memory;

    bool spill() const { return !files.empty(); }

    /// A fresh pass over the records. A merge that fails to open is an
    /// empty stream whose error() says why, so the query fails with it.
    sim::RecordSource& records() {
        if (!spill()) return memory.emplace(trace.records);
        merge.open(files);
        return merge;
    }

    /// Reports a failed pass; returns the exit status.
    int fail(const std::string& error, int status = 1) const {
        std::cerr << path << ": " << error << "\n";
        return status;
    }
};

void print_lineages(const std::vector<std::uint64_t>& lineages) {
    for (const std::uint64_t lin : lineages) std::cout << " " << lin;
    std::cout << "\n";
}

/// Per-call leg reconstruction: every call-event record carries the
/// packed call id in `a` (source << 32 | seq), the CallEvent code in `b`
/// and the attempt number in `flag`, so grouping by `a` rebuilds each
/// call's full life across every node it touched — offered, placed,
/// per-hop reservations, rejects, retries, activation, release. Record
/// order is chronological.
int print_calls(const std::vector<sim::TraceRecord>& found) {
    if (found.empty()) {
        std::cout << "no call events recorded\n";
        return 0;
    }
    std::vector<std::uint64_t> order;
    std::map<std::uint64_t, std::vector<const sim::TraceRecord*>> by_call;
    for (const auto& r : found) {
        auto& legs = by_call[r.a];
        if (legs.empty()) order.push_back(r.a);
        legs.push_back(&r);
    }
    std::cout << order.size() << " call(s), " << found.size() << " call event(s)\n";
    for (const std::uint64_t key : order) {
        const auto& legs = by_call[key];
        const sim::TraceRecord& last = *legs.back();
        std::cout << "\ncall " << static_cast<NodeId>(key >> 32) << "."
                  << (key & 0xffffffffULL) << " — " << legs.size() << " leg(s), last "
                  << paris::call_event_name(static_cast<paris::CallEvent>(last.b))
                  << " at t=" << last.at << "\n";
        for (const sim::TraceRecord* r : legs)
            std::cout << "  t=" << r->at << " node=" << r->node << " "
                      << paris::call_event_name(static_cast<paris::CallEvent>(r->b))
                      << " attempt=" << static_cast<unsigned>(r->flag) << "\n";
    }
    return 0;
}

/// The records `filter` matches, one per line or grouped per call.
int print_matches(Input& in, const obs::TraceFilter& filter, bool per_call) {
    std::vector<sim::TraceRecord> found;
    std::string error;
    if (!obs::filter_records(in.records(), filter, found, &error)) return in.fail(error);
    if (per_call) return print_calls(found);
    std::cout << obs::format_records(found);
    return 0;
}

/// --summary, and --check over spill data: one pass decodes every
/// segment.
int print_summary(Input& in, bool check) {
    obs::TraceSummary s;
    std::string error;
    if (!obs::summarize(in.records(), s, &error)) return in.fail(error);
    const sim::SpillStats& totals = in.merge.totals();
    if (check) {
        std::cout << in.path << ": valid spill data (" << in.merge.file_count()
                  << " file(s), " << s.records << " record(s), " << totals.total_recorded
                  << " recorded" << (in.merge.truncated() ? ", tail recovered" : "")
                  << ")\n";
        return 0;
    }
    if (in.spill()) {
        std::cout << "spill " << in.path << ": " << in.merge.file_count() << " file(s), "
                  << s.records << " records (" << totals.total_recorded << " recorded, "
                  << totals.dropped << " dropped, " << totals.spilled_records
                  << " spilled)";
        if (s.records != 0) std::cout << " t=[" << s.first_at << ", " << s.last_at << "]";
        if (in.merge.truncated()) std::cout << " [tail recovered]";
        std::cout << "\n";
    } else {
        const obs::LoadedTrace& t = in.trace;
        std::cout << "trace \"" << t.meta.name << "\": " << t.meta.nodes << " nodes, "
                  << t.meta.edges.size() << " edges, " << s.records << " records ("
                  << t.total_recorded << " recorded, " << t.dropped << " dropped)\n";
    }
    for (unsigned k = 0; k < sim::kTraceKindCount; ++k)
        if (s.counts[k] != 0)
            std::cout << "  " << sim::trace_kind_name(static_cast<sim::TraceKind>(k)) << ": "
                      << s.counts[k] << "\n";
    return 0;
}

/// --chain: the ancestry line, then every record of those lineages.
int print_chain(Input& in, std::uint64_t lineage) {
    obs::LineageIndex index;
    std::string error;
    if (!index.build(in.records(), &error)) return in.fail(error);
    const std::vector<std::uint64_t> ancestry = index.ancestry(lineage);
    if (ancestry.empty()) {
        std::cerr << "lineage " << lineage << " does not appear in the trace\n";
        return 1;
    }
    std::cout << "ancestry:";
    print_lineages(ancestry);
    std::vector<sim::TraceRecord> records;
    if (!obs::chain_records(in.records(), ancestry, records, &error)) return in.fail(error);
    std::cout << obs::format_records(records);
    return 0;
}

/// --violations: the violation records, then the causal history of every
/// lineage a monitor flagged. Exits 1 when any violation is recorded, so
/// scripts can gate on it directly, and 2 when a pass fails.
int print_violations(Input& in) {
    obs::TraceFilter violation;
    violation.kind = sim::TraceKind::kViolation;
    std::vector<sim::TraceRecord> found;
    obs::LineageIndex index;
    std::string error;
    if (!sim::drain(in.records(), &error, [&](const sim::TraceRecord& r) {
            index.add(r);
            if (violation.matches(r)) found.push_back(r);
        }))
        return in.fail(error, 2);
    if (found.empty()) {
        std::cout << "no violations recorded\n";
        return 0;
    }
    index.finish();
    std::cout << found.size() << " violation record(s):\n" << obs::format_records(found);
    // A second pass collects the histories of every flagged lineage at
    // once; each is then picked out of that pool.
    std::vector<std::uint64_t> flagged, pooled;
    for (const sim::TraceRecord& r : found) {
        if (r.lineage == 0 ||
            std::find(flagged.begin(), flagged.end(), r.lineage) != flagged.end())
            continue;
        flagged.push_back(r.lineage);
        const std::vector<std::uint64_t> ancestry = index.ancestry(r.lineage);
        pooled.insert(pooled.end(), ancestry.begin(), ancestry.end());
    }
    std::vector<sim::TraceRecord> pool;
    if (!flagged.empty() && !obs::chain_records(in.records(), pooled, pool, &error))
        return in.fail(error, 2);
    for (const std::uint64_t lineage : flagged) {
        const std::vector<std::uint64_t> ancestry = index.ancestry(lineage);
        std::cout << "\nlineage " << lineage << " ancestry:";
        print_lineages(ancestry);
        sim::SpanSource from_pool(pool);
        std::vector<sim::TraceRecord> chain;
        obs::chain_records(from_pool, ancestry, chain);
        std::cout << obs::format_records(chain);
    }
    return 1;
}

/// Options of the --critical-path mode.
struct CriticalPathQuery {
    bool enabled = false;
    bool waterfall = false;
    std::string flame;  ///< Chrome-trace output path; empty = none.
    obs::CriticalPathConfig config;
};

/// Writes the winning chain as a self-contained Chrome trace: the
/// chain's own records plus the waterfall segments as a "critical path"
/// process overlaying them.
bool write_flame(const std::string& out_path, const obs::ExportMeta& meta,
                 const std::vector<sim::TraceRecord>& chain_records,
                 const obs::PathWaterfall& wf, std::string* error) {
    std::string out = obs::chrome_trace_json(chain_records, meta);
    std::string overlay;
    obs::append_chrome_path_overlay(overlay, wf);
    out.insert(out.size() - obs::chrome_trace_footer(meta).size(), overlay);
    std::ofstream f(out_path, std::ios::binary | std::ios::trunc);
    if (!f) {
        if (error) *error = "cannot create " + out_path;
        return false;
    }
    f.write(out.data(), static_cast<std::streamsize>(out.size()));
    if (!f) {
        if (error) *error = "write failed for " + out_path;
        return false;
    }
    return true;
}

/// --critical-path: the report, plus the winning chain's waterfall and
/// flame. The pass that prices the run also indexes the lineages the
/// chain needs, and one more pass collects the chain.
int run_critical_path(Input& in, const CriticalPathQuery& q) {
    const bool draw = q.waterfall || !q.flame.empty();
    obs::CriticalPathBuilder builder(q.config);
    obs::LineageIndex index;
    std::string error;
    if (!sim::drain(in.records(), &error, [&](const sim::TraceRecord& r) {
            builder.add(r);
            if (draw) index.add(r);
        }))
        return in.fail(error);
    index.finish();
    const obs::CriticalPathReport report = builder.finish();
    std::cout << obs::format_critical_path(report);
    if (!draw || !report.has_witness) return 0;
    std::vector<sim::TraceRecord> chain;
    if (!obs::chain_records(in.records(), index.ancestry(report.witness.terminal), chain,
                            &error))
        return in.fail(error);
    const obs::PathWaterfall wf = obs::path_waterfall(chain, report.witness);
    if (q.waterfall) std::cout << obs::format_waterfall(wf);
    if (!q.flame.empty()) {
        if (!write_flame(q.flame, in.trace.meta, chain, wf, &error)) {
            std::cerr << error << "\n";
            return 1;
        }
        std::cout << "flame written to " << q.flame << "\n";
    }
    return 0;
}

/// --summary over a metrics JSON export: the per-protocol handler
/// profile and the trace-ring counters, which the JSON carries but no
/// CLI surfaced until now.
int print_metrics_summary(const std::string& path, const obs::JsonValue& doc) {
    const obs::JsonValue* name = doc.find("name");
    std::cout << "metrics \"" << (name != nullptr && name->is_string() ? name->string : "")
              << "\" (" << path << ")\n";
    if (const obs::JsonValue* t = doc.find("trace"); t != nullptr && t->is_object()) {
        const auto count = [&t](const char* key) -> std::uint64_t {
            const obs::JsonValue* v = t->find(key);
            return v != nullptr && v->is_uint() ? v->uint_value : 0;
        };
        std::cout << "trace ring: recorded=" << count("total_recorded")
                  << " dropped=" << count("dropped")
                  << " detail_dropped=" << count("detail_dropped")
                  << " spilled=" << count("spilled_records") << "\n";
        if (count("dropped") != 0)
            std::cout << "  WARNING: ring overflow truncated the trace — size the "
                         "ring up or enable spill\n";
    } else {
        std::cout << "trace ring: not recorded\n";
    }
    const obs::JsonValue* profile = doc.find("profile");
    if (profile == nullptr || !profile->is_array()) {
        std::cout << "profile: not recorded\n";
        return 0;
    }
    std::cout << "profile (" << profile->array.size() << " protocol(s)):\n";
    for (const obs::JsonValue& entry : profile->array) {
        if (!entry.is_object()) continue;
        const obs::JsonValue* proto = entry.find("protocol");
        std::cout << "  " << (proto != nullptr && proto->is_string() ? proto->string : "?");
        for (const auto& [key, value] : entry.object) {
            if (!value.is_uint()) continue;  // invocations / busy_ticks
            std::cout << " " << key << "=" << value.uint_value;
        }
        std::cout << "\n";
        for (const auto& [key, value] : entry.object) {
            if (!value.is_object()) continue;  // per-kind histogram
            const auto field = [&value](const char* k) -> std::uint64_t {
                const obs::JsonValue* v = value.find(k);
                return v != nullptr && v->is_uint() ? v->uint_value : 0;
            };
            std::cout << "    " << key << ": count=" << field("count")
                      << " sum=" << field("sum") << " min=" << field("min")
                      << " p50<=" << field("p50") << " p99<=" << field("p99")
                      << " max=" << field("max") << "\n";
        }
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    std::string path;
    bool check = false, summary = false, reconvergence = false, violations = false;
    bool calls = false;
    obs::TraceFilter filter;
    std::optional<std::uint64_t> chain;
    CriticalPathQuery cp;

    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (std::strcmp(arg, "--check") == 0) {
            check = true;
        } else if (std::strcmp(arg, "--critical-path") == 0) {
            cp.enabled = true;
        } else if (std::strcmp(arg, "--top") == 0 && has_value) {
            cp.config.top = std::strtoull(argv[++i], nullptr, 10);
        } else if (std::strcmp(arg, "--waterfall") == 0) {
            cp.waterfall = true;
        } else if (std::strcmp(arg, "--flame") == 0 && has_value) {
            cp.flame = argv[++i];
        } else if (std::strcmp(arg, "--summary") == 0) {
            summary = true;
        } else if (std::strcmp(arg, "--reconvergence") == 0) {
            reconvergence = true;
        } else if (std::strcmp(arg, "--violations") == 0) {
            violations = true;
        } else if (std::strcmp(arg, "--calls") == 0) {
            calls = true;
        } else if (std::strcmp(arg, "--node") == 0 && has_value) {
            filter.node = static_cast<NodeId>(std::strtoull(argv[++i], nullptr, 10));
        } else if (std::strcmp(arg, "--kind") == 0 && has_value) {
            sim::TraceKind kind;
            if (!sim::trace_kind_from_name(argv[++i], kind)) {
                std::cerr << "unknown kind \"" << argv[i] << "\"\n";
                return 2;
            }
            filter.kind = kind;
        } else if (std::strcmp(arg, "--lineage") == 0 && has_value) {
            filter.lineage = std::strtoull(argv[++i], nullptr, 10);
        } else if (std::strcmp(arg, "--from") == 0 && has_value) {
            filter.from = static_cast<Tick>(std::strtoll(argv[++i], nullptr, 10));
        } else if (std::strcmp(arg, "--to") == 0 && has_value) {
            filter.to = static_cast<Tick>(std::strtoll(argv[++i], nullptr, 10));
        } else if (std::strcmp(arg, "--chain") == 0 && has_value) {
            chain = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg[0] == '-') {
            return usage(argv[0]);
        } else if (path.empty()) {
            path = arg;
        } else {
            return usage(argv[0]);
        }
    }
    if (path.empty()) return usage(argv[0]);

    Input in;
    in.path = path;
    std::string error;
    std::error_code ec;
    if (std::filesystem::is_directory(path, ec) || sim::is_spill_file(path)) {
        in.files = sim::spill_files(path, &error);
        if (in.files.empty()) {
            std::cerr << path << ": " << (error.empty() ? "no spill files" : error) << "\n";
            return 2;
        }
        in.trace.meta.name = path;
    } else {
        std::string text;
        if (!read_file(path, text)) {
            std::cerr << "cannot read " << path << "\n";
            return 2;
        }
        if (check) return run_check(path, text);
        if (summary) {
            // A metrics export is not a trace, but its profile and
            // trace-ring sections are summary material — accept it here.
            obs::JsonValue doc;
            if (obs::json_parse(text, doc) && doc.find("fastnet_metrics") != nullptr)
                return print_metrics_summary(path, doc);
        }
        if (!obs::load_canonical(text, in.trace, &error)) {
            std::cerr << path << ": " << error
                      << "\n(only canonical exports are queryable; --check accepts both "
                         "formats)\n";
            return 1;
        }
    }

    if (check) return print_summary(in, true);
    if (cp.enabled) return run_critical_path(in, cp);
    if (chain) return print_chain(in, *chain);
    if (reconvergence) {
        std::vector<obs::CrashEpisode> episodes;
        if (!obs::crash_episodes(in.records(), episodes, &error)) return in.fail(error);
        std::cout << obs::format_reconvergence(episodes);
        return 0;
    }
    if (calls) {
        filter.kind = sim::TraceKind::kCallEvent;
        return print_matches(in, filter, true);
    }
    if (violations) return print_violations(in);
    if (summary) return print_summary(in, false);
    return print_matches(in, filter, false);
}
