// TraceSpillSmoke harness: byte-identity of the spilled trace path.
//
// Runs one chaos scenario (hardened call agents + fault injection:
// crashes, restarts, link flaps, loss) through node::ParallelCluster
// twice — once with the trace fully resident, once spilling to disk
// under a deliberately tight resident budget — and asserts in-process
// that the exports and the critical path streamed from the spill merge
// are byte-identical to those of the in-memory merged records, that the
// lineage index built from the spill reproduces obs::lineage_ancestry
// exactly, and that a crash-truncated spill file (a run killed
// mid-segment) still opens, reports itself recovered, and merges every
// complete segment. The scenario runs twice more with a link FIFO
// monitor whose spacing the run breaches, so the CLI's --violations has
// flagged chains to reconstruct, and the violations JSON and the export
// with its kViolation records are diffed across the grid.
//
// scripts/trace_spill_smoke.sh runs this binary across a
// (shards x threads) grid, byte-diffs the written exports across the
// grid, and drives fastnet_trace over each export and its spill
// directory.
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "exec/result.hpp"
#include "fault/injector.hpp"
#include "graph/generators.hpp"
#include "node/parallel_cluster.hpp"
#include "obs/critical_path.hpp"
#include "obs/metrics_export.hpp"
#include "obs/monitor.hpp"
#include "obs/trace_export.hpp"
#include "obs/trace_query.hpp"
#include "paris/call_setup.hpp"
#include "paris/workload.hpp"
#include "sim/trace_spill.hpp"

using namespace fastnet;

namespace {

constexpr std::uint64_t kSeed = 2;
/// Arrival spacing the FIFO run checks on every link direction. The
/// network keeps none (link_spacing 0), so closely spaced arrivals
/// breach it.
constexpr Tick kFifoSpacing = 3;

graph::Graph make_shape() {
    Rng g(kSeed * 131 + 7);
    return graph::make_random_connected(14, 2, 5, g);
}

struct RunOutput {
    Tick completion = 0;
    std::string canonical;
    std::string chrome;
    std::string metrics;
    std::string critical_path;  ///< format_critical_path of the run.
    std::string violations;     ///< violations_json of the run.
    std::uint64_t total_recorded = 0;
    std::vector<sim::TraceRecord> records;  ///< In-memory run only.
};

/// The pcalls/seed2 scenario of the parallel chaos sweep: call setup
/// with retries and leases under crash/restart churn — every record
/// kind the exporters know shows up, including kCallEvent for the CLI's
/// --calls and kCrash/kRestart for --reconvergence. A nonzero
/// `fifo_spacing` adds an obs::LinkFifoMonitor with that spacing.
RunOutput run_case(unsigned shards, unsigned threads, const std::string& spill_dir,
                   std::size_t budget_bytes, Tick fifo_spacing = 0) {
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
    cfg.monitor_setup = [fifo_spacing](obs::MonitorHub& hub) {
        obs::add_standard_monitors(hub);
        if (fifo_spacing != 0) hub.add(std::make_unique<obs::LinkFifoMonitor>(fifo_spacing));
    };
    if (spill_dir.empty()) {
        // Resident reference: a ring that cannot wrap for this workload.
        cfg.trace_capacity = std::size_t{1} << 20;
        cfg.trace_detail_capacity = std::size_t{1} << 20;
    } else {
        // Spilled run: a tiny ring and a binding resident budget, so the
        // merge has many segments per shard to interleave.
        cfg.trace_capacity = 512;
        cfg.trace_detail_capacity = 4096;
        cfg.trace_spill_dir = spill_dir;
        cfg.trace_budget_bytes = budget_bytes;
    }

    node::ParallelCluster cluster(*g, paris::make_call_workload(g, aopt), cfg);
    cluster.start_all(0);
    cluster.schedule(inj.compile(*g));

    RunOutput out;
    out.completion = cluster.run();
    out.total_recorded = cluster.trace_total_recorded();
    out.violations = obs::violations_json(cluster.monitor_count(), cluster.violation_count(),
                                          cluster.merged_violations(), "spill_smoke");

    const obs::ExportMeta meta = obs::make_meta(*g, "spill_smoke");
    if (spill_dir.empty()) {
        FASTNET_ENSURES_MSG(cluster.trace_dropped() == 0,
                            "reference ring overflowed; grow trace_capacity");
        FASTNET_ENSURES_MSG(cluster.trace_detail_dropped() == 0,
                            "reference detail arena overflowed");
        out.records = cluster.merged_trace();
        out.canonical = obs::canonical_trace_json(out.records, meta, out.total_recorded,
                                                  0, 0);
        out.chrome = obs::chrome_trace_json(out.records, meta);
        // Price the run's latency over the in-memory records here, over
        // the spill merge in the other branch — main() byte-diffs the two.
        sim::SpanSource records(out.records);
        obs::CriticalPathReport cp;
        FASTNET_ENSURES(obs::critical_path(records, {}, cp));
        out.critical_path = obs::format_critical_path(cp);
        cost::Metrics metrics = cluster.merged_metrics();
        metrics.set_critical_path(obs::to_path_stats(cp));
        out.metrics = obs::metrics_json(metrics, "spill_smoke");
    } else {
        FASTNET_ENSURES_MSG(cluster.trace_spilled_records() == out.total_recorded,
                            "spill lost records");
        FASTNET_ENSURES_MSG(cluster.trace_resident_bytes_peak() <= budget_bytes,
                            "resident trace bytes exceeded the budget");
        std::string error;
        const std::vector<std::string> files = sim::spill_files(spill_dir, &error);
        FASTNET_ENSURES_MSG(files.size() == shards, "one spill file per shard expected");
        // Each pass reads a fresh merge of the files.
        sim::SpillMerge merge;
        std::ostringstream canonical, chrome;
        FASTNET_ENSURES_MSG(merge.open(files, &error) &&
                                obs::write_canonical(merge, meta, merge.totals().total_recorded,
                                                     merge.totals().dropped,
                                                     merge.totals().detail_dropped,
                                                     canonical, &error),
                            "spill canonical export failed");
        FASTNET_ENSURES_MSG(merge.open(files, &error) &&
                                obs::write_chrome(merge, meta, chrome, &error),
                            "spill chrome export failed");
        out.canonical = canonical.str();
        out.chrome = chrome.str();
        obs::CriticalPathReport cp;
        FASTNET_ENSURES_MSG(merge.open(files, &error) &&
                                obs::critical_path(merge, {}, cp, &error),
                            "spill critical-path pass failed");
        out.critical_path = obs::format_critical_path(cp);
        cost::Metrics metrics = cluster.merged_metrics();
        metrics.set_critical_path(obs::to_path_stats(cp));
        out.metrics = obs::metrics_json(metrics, "spill_smoke");
    }
    return out;
}

/// Simulates a run killed mid-write: cuts a finished spill file inside
/// its second segment and checks the reader's recovery contract.
void check_crash_recovery(const std::string& spill_file, const std::string& crash_copy) {
    sim::SpillFile full;
    std::string error;
    FASTNET_ENSURES_MSG(full.open(spill_file, &error), "cannot reopen spill file");
    FASTNET_ENSURES_MSG(full.segments().size() >= 2,
                        "need >= 2 segments to cut one in half");
    FASTNET_ENSURES_MSG(!full.truncated(), "finished file must not read as truncated");

    std::ifstream in(spill_file, std::ios::binary);
    std::ostringstream all;
    all << in.rdbuf();
    const std::string bytes = all.str();
    // Cut inside the second segment's record stream: past its header,
    // short of its payload.
    const sim::SpillFile::Segment& second = full.segments()[1];
    const std::size_t cut = static_cast<std::size_t>(second.offset) + 16 +
                            static_cast<std::size_t>(second.payload_bytes) / 2;
    FASTNET_EXPECTS(cut < bytes.size());
    std::ofstream outf(crash_copy, std::ios::binary | std::ios::trunc);
    outf.write(bytes.data(), static_cast<std::streamsize>(cut));
    outf.close();

    sim::SpillFile crashed;
    FASTNET_ENSURES_MSG(crashed.open(crash_copy, &error),
                        "truncated spill file must still open");
    FASTNET_ENSURES_MSG(crashed.truncated(), "cut file must report recovery");
    FASTNET_ENSURES_MSG(crashed.segments().size() == 1,
                        "partial segment must be discarded");
    FASTNET_ENSURES_MSG(crashed.stats().recovered, "stats must be rebuilt");

    // The surviving segments still merge and stream.
    sim::SpillMerge merge;
    FASTNET_ENSURES_MSG(merge.open({crash_copy}, &error), "crash copy must merge");
    std::uint64_t n = 0;
    for (sim::TraceRecord r; merge.next(r);) ++n;
    FASTNET_ENSURES_MSG(n == crashed.segments()[0].records,
                        "crash copy must stream its complete segment");
}

bool write_file(const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
    unsigned shards = 1, threads = 1;
    std::string dir;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
            shards = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
            threads = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (std::strcmp(argv[i], "--dir") == 0 && i + 1 < argc) {
            dir = argv[++i];
        } else {
            std::cerr << "usage: " << argv[0] << " --dir OUT [--shards N] [--threads N]\n"
                      << "  --threads 0 uses min(shards, hardware)\n";
            return 2;
        }
    }
    if (dir.empty()) {
        std::cerr << "--dir is required\n";
        return 2;
    }
    std::filesystem::create_directories(dir);
    const std::string spill_dir = dir + "/spill";

    const RunOutput resident = run_case(shards, threads, "", 0);
    const RunOutput spilled = run_case(shards, threads, spill_dir, 16 * 1024);

    // The tentpole contract: the spilled run's streamed exports are the
    // in-memory run's exports, byte for byte.
    FASTNET_ENSURES_MSG(resident.completion == spilled.completion,
                        "spill changed the simulation");
    FASTNET_ENSURES_MSG(resident.canonical == spilled.canonical,
                        "canonical export differs between resident and spilled runs");
    FASTNET_ENSURES_MSG(resident.chrome == spilled.chrome,
                        "chrome export differs between resident and spilled runs");
    FASTNET_ENSURES_MSG(resident.critical_path == spilled.critical_path,
                        "critical-path report differs between the in-memory engine "
                        "and the streaming spill engine");

    // The lineage index built from the spill == the in-memory ancestry
    // relation.
    std::string error;
    const std::vector<std::string> files = sim::spill_files(spill_dir, &error);
    sim::SpillMerge merge;
    obs::LineageIndex idx;
    FASTNET_ENSURES_MSG(merge.open(files, &error) && idx.build(merge, &error),
                        "lineage index build failed");
    unsigned checked = 0;
    for (const sim::TraceRecord& r : resident.records) {
        if (r.kind != sim::TraceKind::kSend || checked >= 200) continue;
        ++checked;
        FASTNET_ENSURES_MSG(
            idx.ancestry(r.lineage) == obs::lineage_ancestry(resident.records, r.lineage),
            "index ancestry diverges from obs::lineage_ancestry");
    }
    FASTNET_ENSURES_MSG(checked > 0, "scenario recorded no sends");

    check_crash_recovery(files.front(), dir + "/crash.fnspill");

    // The FIFO run: its export and its spill directory, for the CLI's
    // --violations to be diffed across the two.
    const RunOutput fifo = run_case(shards, threads, "", 0, kFifoSpacing);
    const RunOutput fifo_spilled =
        run_case(shards, threads, dir + "/fifo_spill", 16 * 1024, kFifoSpacing);
    FASTNET_ENSURES_MSG(fifo.canonical == fifo_spilled.canonical,
                        "canonical export differs between resident and spilled FIFO runs");
    FASTNET_ENSURES_MSG(fifo.violations == fifo_spilled.violations,
                        "violations differ between resident and spilled FIFO runs");

    if (!write_file(dir + "/canonical.json", resident.canonical) ||
        !write_file(dir + "/chrome.json", resident.chrome) ||
        !write_file(dir + "/metrics.json", resident.metrics) ||
        !write_file(dir + "/fifo.json", fifo.canonical) ||
        !write_file(dir + "/fifo_violations.json", fifo.violations)) {
        std::cerr << "cannot write exports into " << dir << "\n";
        return 1;
    }
    std::cout << "trace_spill_smoke: shards=" << shards << " threads=" << threads
              << ": " << resident.total_recorded << " records, "
              << files.size() << " spill file(s), exports byte-identical\n";
    return 0;
}
