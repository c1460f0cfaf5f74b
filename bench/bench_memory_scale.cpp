// M1: memory at scale — bytes/node and ns/hop from 2^14 to 10^6 nodes.
//
// The arena/SoA node-state refactor (docs/PERF.md "Memory at scale")
// claims two things a microbench cannot show: (1) per-node footprint is
// flat in n — a million-node cluster costs the same bytes/node as a
// sixteen-thousand-node one, because nothing per-node is O(degree
// envelope) or O(n); (2) the compaction did not tax the hop fast path.
// This bench proves both with hard gates:
//
//   bytes_per_node_n<k>   — total cluster footprint / n after a full E6
//                           ring election at n (ledger from
//                           ParallelCluster::sample_memory; capacity-based, so
//                           machine-independent). GATE: the 10^6-node
//                           figure must stay within 1.5x of the 2^14 one.
//   ns_per_hop_n<k>       — steady-state relay hop cost on an n-node
//                           path, same harness as bench_sim_core's
//                           hop_ns but across the size sweep.
//   hop_ns / broadcast_e2e_16384_ms
//                         — exact mirrors of the bench_sim_core
//                           configurations. GATE: within 5% of the
//                           recorded baseline (bench/history/<rev>/
//                           BENCH_sim_core.json, resolved through the
//                           history INDEX or $FASTNET_BENCH_BASELINE;
//                           the gate logs and skips when no baseline
//                           file is reachable).
//   build_allocs_per_node_n<k>
//                         — heap allocations per node while
//                           constructing the cluster (the arena turns
//                           per-node container churn into a handful of
//                           chunk mmaps; target: O(0.1)/node).
//
// Everything is deterministic except wall-clock: fixed seeds, fixed
// priorities (node id — Chang-Roberts' 2n-1 best case, so the election
// stays O(n) messages at n = 10^6 on the one-core CI container).
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <new>
#include <sstream>
#include <string>

#include "fastnet.hpp"
#include "json_reporter.hpp"
#include "obs/json.hpp"
#include "sim/trace_spill.hpp"

// ---- global allocation counter -----------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}

// These counting operators intentionally delegate storage to
// malloc/free; once make_shared below is inlined against them, GCC
// pairs the allocation sites with std::free and mis-reports a mismatch.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t al) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    void* p = nullptr;
    if (posix_memalign(&p, static_cast<std::size_t>(al), size ? size : 1) != 0)
        throw std::bad_alloc();
    return p;
}
void* operator new[](std::size_t size, std::align_val_t al) { return ::operator new(size, al); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace fastnet;

constexpr NodeId kSizes[] = {16'384, 65'536, 262'144, 1'000'000};
constexpr NodeId kSmallest = kSizes[0];
constexpr NodeId kLargest = kSizes[3];

// ---- baseline (PR 6 snapshot) ------------------------------------------

/// The two bench_sim_core numbers this PR must not regress past 5%.
struct Baseline {
    double hop_ns = 0;
    double broadcast_e2e_16384_ms = 0;
    bool loaded = false;
    std::string path;
};

std::string read_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) return {};
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string last_nonempty_line(const std::string& text) {
    std::string last;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        if (!line.empty()) last = line;
    return last;
}

/// Resolves the most recent recorded BENCH_sim_core.json: explicit
/// $FASTNET_BENCH_BASELINE wins; otherwise walk candidate prefixes to
/// bench/history, read the INDEX's last entry, and load that snapshot.
Baseline load_baseline() {
    Baseline b;
    std::string json;
    if (const char* env = std::getenv("FASTNET_BENCH_BASELINE")) {
        b.path = env;
        json = read_file(b.path);
    } else {
        for (const char* prefix : {"bench/history", "../bench/history", "../../bench/history"}) {
            const std::string index = read_file(std::string(prefix) + "/INDEX");
            if (index.empty()) continue;
            b.path = std::string(prefix) + "/" + last_nonempty_line(index) +
                     "/BENCH_sim_core.json";
            json = read_file(b.path);
            if (!json.empty()) break;
        }
    }
    if (json.empty()) return b;

    obs::JsonValue doc;
    std::string err;
    if (!obs::json_parse(json, doc, &err)) {
        std::cout << "  baseline " << b.path << " unparsable: " << err << "\n";
        return b;
    }
    const obs::JsonValue* results = doc.find("results");
    if (results == nullptr || !results->is_array()) return b;
    for (const obs::JsonValue& entry : results->array) {
        const obs::JsonValue* name = entry.find("name");
        const obs::JsonValue* value = entry.find("value");
        if (name == nullptr || value == nullptr || !value->is_number()) continue;
        if (name->string == "hop_ns") b.hop_ns = value->as_double();
        if (name->string == "broadcast_e2e_16384_ms")
            b.broadcast_e2e_16384_ms = value->as_double();
    }
    b.loaded = b.hop_ns > 0 && b.broadcast_e2e_16384_ms > 0;
    return b;
}

// ---- bytes/node across the size sweep ----------------------------------

/// Builds an n-node E6 ring election cluster, runs it to completion and
/// returns the memory ledger plus build-time allocation stats. Sampling
/// is manual (sample_memory at quiescence): the footprint it reads is
/// capacity-based and deterministic, so one sample at the end is the
/// whole story and the 10^6-node run skips the windowed re-entry loop.
struct ScalePoint {
    double bytes_per_node = 0;
    double arena_bytes_per_node = 0;
    double build_allocs_per_node = 0;
    double election_ms = 0;
    std::uint64_t peak_node_bytes = 0;
};

ScalePoint measure_ring_election(NodeId n) {
    const graph::Graph g = graph::make_cycle(n);

    const std::uint64_t allocs_before = g_alloc_count.load();
    node::ParallelCluster cluster(g, [](NodeId u) {
        return std::make_unique<elect::ChangRobertsProtocol>(u);
    });
    const std::uint64_t build_allocs = g_alloc_count.load() - allocs_before;

    const auto t0 = std::chrono::steady_clock::now();
    cluster.start_all(0);
    cluster.run();
    const auto t1 = std::chrono::steady_clock::now();

    // Every node must have decided — the run actually happened.
    FASTNET_ENSURES(cluster.protocol_as<elect::ChangRobertsProtocol>(0).known_leader() !=
                    kNoNode);

    cluster.sample_memory();
    const cost::Metrics metrics = cluster.merged_metrics();
    const cost::MemorySample* mem = metrics.memory();
    FASTNET_ENSURES(mem != nullptr);

    ScalePoint p;
    p.bytes_per_node = static_cast<double>(mem->breakdown.total()) / n;
    p.arena_bytes_per_node = static_cast<double>(mem->breakdown.arena_used) / n;
    p.build_allocs_per_node = static_cast<double>(build_allocs) / n;
    p.election_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    p.peak_node_bytes = metrics.peak_node_bytes();
    return p;
}

// ---- ns/hop across the size sweep --------------------------------------

double measure_hop_ns(NodeId n) {
    const graph::Graph g = graph::make_path(n);
    sim::Simulator sim;
    cost::Metrics metrics(g.node_count());
    hw::Fabric fabric(g, ModelParams::traditional(), {}, graph::partition_bfs(g, 1), 1);
    hw::Network net(sim, fabric, 0, metrics, nullptr, nullptr);
    std::uint64_t delivered = 0;
    net.set_ncu_dispatch([&](NodeId, const hw::Delivery&) { ++delivered; });

    std::vector<NodeId> path(n);
    for (NodeId u = 0; u < n; ++u) path[u] = u;
    const hw::AnrHeader header = net.route(path);

    net.send(0, header, nullptr);  // warm pools and caches
    sim.run();
    const double ns = bench::min_time_ns([&] {
        net.send(0, header, nullptr);
        sim.run();
    });
    if (delivered == 0) std::abort();
    return ns / static_cast<double>(n - 1);
}

// ---- spill-bounded tracing at 10^6 nodes -------------------------------

/// A fully traced million-node election with the trace spilling to disk
/// under a hard resident budget — the acceptance run of the streaming
/// observability PR: resident trace memory stays under the configured
/// budget (ENSURES; resident_bytes() is capacity-based and never
/// shrinks, so one end-of-run check is the peak) while every record
/// survives on disk (no ring truncation, merge count == recorded
/// count).
struct SpillPoint {
    double election_ms = 0;
    std::uint64_t recorded = 0;
    std::uint64_t spilled_bytes = 0;
    std::size_t resident_bytes = 0;
};

SpillPoint measure_spill_traced_election(NodeId n) {
    constexpr std::size_t kBudget = 4 << 20;  // 4 MiB resident for ~10^7 records
    const std::string dir = "BENCH_memory_scale.spill";

    node::ParallelClusterConfig cfg;
    cfg.trace_capacity = std::size_t{1} << 16;
    // Message-level kinds only: per-hop records of a 10^6-node ring lap
    // would be pure volume without changing what the gate proves.
    cfg.trace_kinds =
        sim::trace_kind_bit(sim::TraceKind::kSend) | sim::trace_kind_bit(sim::TraceKind::kDeliver);
    cfg.trace_spill_dir = dir;
    cfg.trace_budget_bytes = kBudget;
    node::ParallelCluster cluster(graph::make_cycle(n), [](NodeId u) {
        return std::make_unique<elect::ChangRobertsProtocol>(u);
    }, cfg);

    const auto t0 = std::chrono::steady_clock::now();
    cluster.start_all(0);
    cluster.run();  // finishes the spill and folds TraceStats into metrics
    const auto t1 = std::chrono::steady_clock::now();
    FASTNET_ENSURES(cluster.protocol_as<elect::ChangRobertsProtocol>(0).known_leader() !=
                    kNoNode);

    SpillPoint p;
    p.election_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    p.resident_bytes = cluster.trace_resident_bytes_peak();
    const cost::Metrics metrics = cluster.merged_metrics();
    const cost::TraceStats& stats = metrics.trace_stats();
    p.recorded = stats.total_recorded;
    p.spilled_bytes = stats.spilled_bytes;

    // The gates: bounded memory, nothing truncated, everything on disk.
    FASTNET_ENSURES_MSG(p.resident_bytes <= kBudget,
                        "resident trace memory exceeded the spill budget");
    FASTNET_ENSURES_MSG(stats.dropped == 0, "spill-enabled trace dropped records");
    FASTNET_ENSURES_MSG(stats.spilled_records == stats.total_recorded,
                        "spill file is missing records");
    sim::SpillMerge merge;
    std::string error;
    FASTNET_ENSURES_MSG(merge.open(cluster.spill_paths(), &error), "spill file unreadable");
    std::uint64_t merged = 0;
    for (sim::TraceRecord r; merge.next(r);) ++merged;
    FASTNET_ENSURES_MSG(merge.error().empty(), "spill segment failed to decode");
    FASTNET_ENSURES_MSG(merged == stats.total_recorded,
                        "merged record count != recorded count");

    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return p;
}

// ---- bench_sim_core mirrors (the 5% regression gates) ------------------

/// Exact copy of bench_sim_core's hop harness (4096-node path) so the
/// number is comparable to the recorded hop_ns baseline.
double mirror_hop_ns() { return measure_hop_ns(4096); }

/// Exact copy of bench_sim_core's 16384-node broadcast configuration.
double mirror_broadcast_e2e_ms() {
    Rng rng(3);
    const graph::Graph g = graph::make_random_connected(16'384, 1, 2 * 16'384, rng);
    const double ns = bench::min_time_ns(
        [&] {
            const auto res = topo::run_broadcast(g, topo::BroadcastScheme::kBranchingPaths, 0);
            FASTNET_ENSURES(res.all_received);
        },
        std::chrono::milliseconds(500));
    return ns / 1e6;
}

}  // namespace

int main() {
    bench::JsonReporter out("memory_scale");
    std::cout << "== M1: memory at scale (" << kSmallest << " .. " << kLargest
              << " nodes) ==\n";

    double bpn_smallest = 0, bpn_largest = 0;
    for (NodeId n : kSizes) {
        const ScalePoint p = measure_ring_election(n);
        const std::string suffix = "_n" + std::to_string(n);
        out.add("bytes_per_node" + suffix, p.bytes_per_node, "bytes");
        out.add("arena_bytes_per_node" + suffix, p.arena_bytes_per_node, "bytes");
        out.add("build_allocs_per_node" + suffix, p.build_allocs_per_node, "allocs");
        out.add("election_e2e" + suffix + "_ms", p.election_ms, "ms");
        std::cout << "  n=" << n << ": " << p.bytes_per_node << " bytes/node ("
                  << p.arena_bytes_per_node << " arena), "
                  << p.build_allocs_per_node << " build allocs/node, election "
                  << p.election_ms << " ms, peak node " << p.peak_node_bytes
                  << " B\n";
        if (n == kSmallest) bpn_smallest = p.bytes_per_node;
        if (n == kLargest) bpn_largest = p.bytes_per_node;
    }

    for (NodeId n : kSizes) {
        const double ns = measure_hop_ns(n);
        out.add("ns_per_hop_n" + std::to_string(n), ns, "ns");
        std::cout << "  n=" << n << ": " << ns << " ns/hop\n";
    }

    // GATE 1 — flatness: growing the cluster 61x may not grow the
    // per-node footprint past 1.5x. (In practice it *shrinks*: fixed
    // costs amortize; the margin absorbs allocator capacity rounding.)
    std::cout << "  flatness: " << bpn_largest << " / " << bpn_smallest << " = "
              << bpn_largest / bpn_smallest << " (gate 1.5)\n";
    FASTNET_ENSURES_MSG(bpn_largest <= 1.5 * bpn_smallest,
                        "bytes/node grew superlinearly with n");

    // GATE — bounded-memory tracing at 10^6 nodes (spill to disk).
    {
        const SpillPoint sp = measure_spill_traced_election(kLargest);
        out.add("spill_traced_election_n1000000_ms", sp.election_ms, "ms");
        out.add("spill_recorded_n1000000", static_cast<double>(sp.recorded), "records");
        out.add("spill_bytes_n1000000", static_cast<double>(sp.spilled_bytes), "bytes");
        out.add("spill_resident_bytes_n1000000",
                static_cast<double>(sp.resident_bytes), "bytes");
        std::cout << "  spill-traced n=" << kLargest << ": " << sp.recorded
                  << " records, " << sp.spilled_bytes << " B on disk, "
                  << sp.resident_bytes << " B resident (budget 4 MiB), election "
                  << sp.election_ms << " ms\n";
    }

    // GATE 2 — fast-path regression vs the recorded PR 6 snapshot.
    const double hop = mirror_hop_ns();
    const double bcast = mirror_broadcast_e2e_ms();
    out.add("hop_ns", hop, "ns");
    out.add("broadcast_e2e_16384_ms", bcast, "ms");

    const Baseline base = load_baseline();
    if (base.loaded) {
        std::cout << "  baseline " << base.path << ": hop " << base.hop_ns
                  << " ns (now " << hop << "), broadcast "
                  << base.broadcast_e2e_16384_ms << " ms (now " << bcast << ")\n";
        FASTNET_ENSURES_MSG(hop <= 1.05 * base.hop_ns,
                            "hop fast path regressed more than 5% vs baseline");
        FASTNET_ENSURES_MSG(bcast <= 1.05 * base.broadcast_e2e_16384_ms,
                            "broadcast e2e regressed more than 5% vs baseline");
    } else {
        std::cout << "  no baseline snapshot reachable "
                  << "(set FASTNET_BENCH_BASELINE); regression gate skipped\n";
    }

    out.write();
    return 0;
}
