// O3: causal critical-path engine — determinism, exactness, bounded memory.
//
// The streaming attribution engine (obs/critical_path.hpp) claims three
// things this bench turns into hard gates:
//
//   1. DETERMINISM — `format_critical_path` over the chaos call workload
//      is byte-identical across shard x thread configurations AND between
//      the in-memory engine and the streaming spill engine
//      (scripts/critical_path_smoke.sh re-checks the same property from
//      the CLI side; here it is in-process and part of the perf snapshot).
//   2. EXACTNESS — every reported path's five-way segment decomposition
//      (queueing / transit / handler / timer_wait / retry_backoff) sums
//      exactly to its end-to-end latency. Checked directly and through
//      BoundAudit::critical_path, which also bounds the witness latency
//      by the run's completion tick.
//   3. BOUNDED MEMORY — the critical path of a fully traced 10^6-node
//      ring election is extracted from spill files with the builder's
//      peak resident footprint under the same 4 MiB budget
//      bench_memory_scale's spill gate runs under. This is the ISSUE's
//      acceptance run: trace -> spill -> streaming attribution without
//      ever holding the trace (or per-lineage state proportional to it)
//      in memory.
//
// Reported numbers (BENCH_critical_path.json): witness latency and depth,
// per-segment ticks, streaming throughput (ns/record), and the million-
// node extraction's peak resident bytes — units `path_ticks` and
// `segments` are lower-is-better in `fastnet_report --history`.
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "fastnet.hpp"
#include "json_reporter.hpp"
#include "obs/critical_path.hpp"
#include "obs/spill_query.hpp"
#include "sim/trace_spill.hpp"

namespace {

using namespace fastnet;

constexpr std::uint64_t kSeed = 2;

// ---- the chaos call workload (pcalls/seed2, as in trace_spill_smoke) ----

graph::Graph make_shape() {
    Rng g(kSeed * 131 + 7);
    return graph::make_random_connected(14, 2, 5, g);
}

struct ChaosRun {
    Tick completion = 0;
    std::vector<sim::TraceRecord> records;      ///< Resident runs only.
    std::vector<std::string> spill_paths;       ///< Spill runs only.
};

/// Call setup with retries and leases under crash/restart churn — the
/// workload exercises every segment kind: hop transit, A1 queueing,
/// handler busy spans, refresh timer waits and retry backoff.
ChaosRun run_chaos(unsigned shards, unsigned threads, const std::string& spill_dir) {
    auto g = std::make_shared<graph::Graph>(make_shape());

    fault::FaultModel model;
    model.link_flaps = 3;
    model.node_crashes = 2;
    model.window_from = 40;
    model.window_to = 700;
    model.heal_at = 800;
    model.loss_ppm = 20'000;
    fault::FaultInjector inj(model, kSeed ^ 0xca115ULL);

    paris::CallAgentOptions aopt;
    aopt.link_capacity = 3;
    aopt.setup_timeout = 24;
    aopt.max_retries = 3;
    aopt.retry_backoff = 8;
    aopt.retry_jitter = 4;
    aopt.reservation_ttl = 150;
    aopt.refresh_interval = 50;
    aopt.max_inflight = 4;
    aopt.workload.arrivals = paris::ArrivalProcess::kPoisson;
    aopt.workload.mean_interarrival = 60;
    aopt.workload.mean_hold = 80;
    aopt.workload.first_at = 10;
    aopt.workload.until = 700;

    node::ParallelClusterConfig cfg;
    cfg.params.hop_delay = 2;
    cfg.params.ncu_delay = 2;
    cfg.ncu_delay_min = 1;
    cfg.seed = kSeed * 7919 + 1988;
    cfg.shards = shards;
    cfg.threads = threads;
    cfg.net.hop_delay_min = 1;
    cfg.net.loss_ppm = model.loss_ppm;
    if (spill_dir.empty()) {
        cfg.trace_capacity = std::size_t{1} << 20;
        cfg.trace_detail_capacity = std::size_t{1} << 20;
    } else {
        cfg.trace_capacity = 512;
        cfg.trace_detail_capacity = 4096;
        cfg.trace_spill_dir = spill_dir;
        cfg.trace_budget_bytes = 16 * 1024;
    }

    node::ParallelCluster cluster(*g, paris::make_call_workload(g, aopt), cfg);
    cluster.start_all(0);
    cluster.schedule(inj.compile(*g));

    ChaosRun out;
    out.completion = cluster.run();
    if (spill_dir.empty()) {
        FASTNET_ENSURES_MSG(cluster.trace_dropped() == 0, "reference ring overflowed");
        out.records = cluster.merged_trace();
    } else {
        std::string error;
        out.spill_paths = sim::spill_files(spill_dir, &error);
        FASTNET_ENSURES_MSG(out.spill_paths.size() == shards,
                            "one spill file per shard expected");
    }
    return out;
}

/// Segment sums must tile the latency of every reported path — the
/// engine's conservation law, checked on the witness and the whole
/// top-N table.
void check_exact_sums(const obs::CriticalPathReport& report) {
    FASTNET_ENSURES_MSG(report.has_witness, "chaos run produced no deliveries");
    FASTNET_ENSURES_MSG(report.witness.totals.total() == report.witness.latency(),
                        "witness segments do not sum to its latency");
    for (const obs::PathSummary& p : report.top)
        FASTNET_ENSURES_MSG(p.totals.total() == p.latency(),
                            "a top-N path's segments do not sum to its latency");
}

// ---- million-node spill extraction (the 4 MiB gate) ---------------------

struct MillionPoint {
    double extract_ms = 0;
    std::uint64_t records = 0;
    std::size_t peak_bytes = 0;
    obs::CriticalPathReport report;
};

/// Mirrors bench_memory_scale::measure_spill_traced_election — same
/// trace kinds (kSend/kDeliver), same 4 MiB resident budget, same ring
/// election — then streams the spill through the attribution engine in
/// witness-only mode. `anchor_root_deliveries` is off (kTimer is not
/// traced here, so nothing downstream needs a root anchor entry) and a
/// horizon sweeps chain state the election has moved past, so the
/// builder's footprint is a window, not the trace.
MillionPoint measure_million_node_extraction(NodeId n, std::size_t budget) {
    const std::string dir = "BENCH_critical_path.spill";

    node::ParallelClusterConfig cfg;
    cfg.trace_capacity = std::size_t{1} << 16;
    cfg.trace_kinds =
        sim::trace_kind_bit(sim::TraceKind::kSend) | sim::trace_kind_bit(sim::TraceKind::kDeliver);
    cfg.trace_spill_dir = dir;
    cfg.trace_budget_bytes = budget;
    node::ParallelCluster cluster(graph::make_cycle(n), [](NodeId u) {
        return std::make_unique<elect::ChangRobertsProtocol>(u);
    }, cfg);
    cluster.start_all(0);
    cluster.run();
    FASTNET_ENSURES(cluster.protocol_as<elect::ChangRobertsProtocol>(0).known_leader() !=
                    kNoNode);
    const cost::TraceStats stats = cluster.merged_metrics().trace_stats();
    FASTNET_ENSURES_MSG(stats.dropped == 0, "spill-enabled trace dropped records");
    FASTNET_ENSURES_MSG(stats.spilled_records == stats.total_recorded,
                        "spill file is missing records");

    obs::CriticalPathConfig cp;
    cp.top = 0;                          // witness-only: O(1) chain state
    cp.horizon = 4096;                   // sweep chain state the ring moved past
    cp.anchor_root_deliveries = false;   // no timers traced; root legs self-anchor
    MillionPoint p;
    p.records = stats.total_recorded;
    std::string error;
    const auto t0 = std::chrono::steady_clock::now();
    FASTNET_ENSURES_MSG(
        obs::spill_critical_path(cluster.spill_paths(), cp, p.report, &error, &p.peak_bytes),
        "spill critical-path pass failed");
    const auto t1 = std::chrono::steady_clock::now();
    p.extract_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();

    FASTNET_ENSURES_MSG(p.report.has_witness, "million-node election has no witness path");
    FASTNET_ENSURES_MSG(p.report.witness.totals.total() == p.report.witness.latency(),
                        "million-node witness segments do not tile its latency");
    // THE gate: streaming attribution inherits bench_memory_scale's
    // resident budget — the engine never holds the trace.
    FASTNET_ENSURES_MSG(p.peak_bytes <= budget,
                        "critical-path builder exceeded the 4 MiB resident budget");

    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return p;
}

}  // namespace

int main() {
    bench::JsonReporter out("critical_path");
    std::cout << "== O3: causal critical-path engine ==\n";

    // ---- determinism across shards x threads, in-memory vs spill -------
    const ChaosRun base = run_chaos(1, 1, "");
    const obs::CriticalPathReport report = obs::critical_path(base.records);
    const std::string formatted = obs::format_critical_path(report);
    check_exact_sums(report);
    FASTNET_ENSURES(report.deliveries > 0 && report.timer_fires > 0);

    struct GridPoint { unsigned shards, threads; };
    for (const GridPoint gp : {GridPoint{2, 2}, GridPoint{4, 2}}) {
        const ChaosRun run = run_chaos(gp.shards, gp.threads, "");
        FASTNET_ENSURES_MSG(run.completion == base.completion,
                            "sharding changed the simulation");
        const std::string other =
            obs::format_critical_path(obs::critical_path(run.records));
        FASTNET_ENSURES_MSG(other == formatted,
                            "critical-path report differs across shard/thread configs");
    }
    {
        const std::string spill_dir = "BENCH_critical_path.spill";
        const ChaosRun run = run_chaos(4, 2, spill_dir);
        obs::CriticalPathReport streamed;
        std::string error;
        FASTNET_ENSURES_MSG(
            obs::spill_critical_path(run.spill_paths, {}, streamed, &error),
            "spill critical-path pass failed");
        FASTNET_ENSURES_MSG(obs::format_critical_path(streamed) == formatted,
                            "streaming spill engine disagrees with the in-memory engine");
        std::error_code ec;
        std::filesystem::remove_all(spill_dir, ec);
    }
    std::cout << "  determinism: in-memory {1x1,2x2,4x2} and spilled 4x2 byte-identical\n";

    // ---- exactness as an executable audit -------------------------------
    obs::BoundAudit audit("critical_path_bench");
    audit.critical_path(obs::to_path_stats(report),
                        static_cast<double>(base.completion));
    FASTNET_ENSURES_MSG(audit.pass(), "critical-path bound audit failed");

    const obs::PathSummary& w = report.witness;
    out.add("chaos_witness_latency", static_cast<double>(w.latency()), "path_ticks");
    out.add("chaos_witness_depth", static_cast<double>(w.depth), "segments");
    for (unsigned k = 0; k < obs::kSegmentKindCount; ++k)
        out.add(std::string("chaos_witness_") +
                    cost::path_segment_kind_name(static_cast<cost::PathSegmentKind>(k)),
                static_cast<double>(w.totals.ticks[k]), "path_ticks");
    std::cout << "  chaos witness: latency " << w.latency() << " ticks over "
              << w.depth << " segments (audit: "
              << audit.checks().size() << " checks pass)\n";

    // ---- streaming throughput -------------------------------------------
    const double pass_ns = bench::min_time_ns([&] {
        obs::CriticalPathBuilder b;
        for (const sim::TraceRecord& r : base.records) b.add(r);
        const obs::CriticalPathReport rep = b.finish();
        if (!rep.has_witness) std::abort();
    });
    const double ns_per_record = pass_ns / static_cast<double>(base.records.size());
    out.add("attribution_ns_per_record", ns_per_record, "ns");
    std::cout << "  attribution pass: " << ns_per_record << " ns/record over "
              << base.records.size() << " records\n";

    // ---- the million-node 4 MiB extraction gate -------------------------
    {
        constexpr std::size_t kBudget = 4 << 20;  // bench_memory_scale's budget
        const MillionPoint mp = measure_million_node_extraction(1'000'000, kBudget);
        out.add("million_node_extract_ms", mp.extract_ms, "ms");
        out.add("million_node_records", static_cast<double>(mp.records), "records");
        out.add("million_node_peak_bytes", static_cast<double>(mp.peak_bytes), "bytes");
        out.add("million_node_witness_latency",
                static_cast<double>(mp.report.witness.latency()), "path_ticks");
        out.add("million_node_witness_depth",
                static_cast<double>(mp.report.witness.depth), "segments");
        std::cout << "  million-node extraction: " << mp.records << " records, witness "
                  << mp.report.witness.latency() << " ticks / "
                  << mp.report.witness.depth << " segments, peak "
                  << mp.peak_bytes << " B (budget " << kBudget << "), "
                  << mp.extract_ms << " ms\n";
    }

    out.write();
    return 0;
}
