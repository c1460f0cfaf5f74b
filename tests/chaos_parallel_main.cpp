// Seeded chaos sweep for the parallel event kernel (ChaosParallelSmoke).
//
// The one-shard chaos gate (chaos_smoke_main.cpp) stresses the protocol
// stack; this one stresses the *kernel*: every seed's fault script runs
// through node::ParallelCluster at several shard counts — sharded
// mirrors, bounded windows,
// cross-shard outboxes — and is held against the same convergence
// oracle. The harness (scripts/chaos_parallel.sh) runs this binary at
// several (shards, threads) combinations and byte-diffs the JSON: the
// partitioned execution must produce the same completion times, cost
// counters and monitor verdicts as the single-shard run, at any worker
// parallelism. The tsan preset covers the same binary, so window-barrier
// races would surface here first.
//
// Chaos configs need a positive lookahead: hop delays here are >= 1
// (jittered [1, C] or fixed C), unlike the one-shard chaos sweep's
// hop_delay_min = 0.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "exec/result.hpp"
#include "exec/sweep_runner.hpp"
#include "exec/thread_pool.hpp"
#include "fault/call_oracle.hpp"
#include "fault/injector.hpp"
#include "fault/oracle.hpp"
#include "graph/generators.hpp"
#include "node/parallel_cluster.hpp"
#include "obs/monitor.hpp"
#include "paris/call_setup.hpp"
#include "paris/workload.hpp"
#include "topo/topology_maintenance.hpp"

using namespace fastnet;

namespace {

graph::Graph shape_for(std::uint64_t seed) {
    switch (seed % 4) {
        case 0: return graph::make_cycle(12);
        case 1: return graph::make_grid(4, 4);
        case 2: {
            Rng g(seed * 131 + 7);
            return graph::make_random_connected(14, 2, 5, g);
        }
        default: {
            Rng g(seed * 131 + 7);
            return graph::make_random_connected(18, 3, 5, g);
        }
    }
}

}  // namespace

int main(int argc, char** argv) {
    unsigned threads = 0;
    unsigned shards = 1;
    unsigned seeds = 20;
    std::string out_path = "chaos_parallel.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
            threads = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
            shards = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
            seeds = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--shards N] [--threads N] [--seeds N] [--out FILE]\n"
                      << "  --threads 0 (default) uses min(shards, hardware)\n";
            return 2;
        }
    }

    std::vector<exec::CaseResult> rows;
    bool all_ok = true;

    for (std::uint64_t seed = 0; seed < seeds; ++seed) {
        graph::Graph g = shape_for(seed);

        fault::FaultModel model;
        model.link_flaps = 4 + static_cast<unsigned>(seed % 5);
        model.node_crashes = 2 + static_cast<unsigned>(seed % 3);
        model.stalls = (seed % 3 == 0) ? 2 : 0;
        model.stall_max = 6;
        model.window_from = 50;
        model.window_to = 600;
        model.heal_at = 700;
        if (seed % 5 == 1) model.loss_ppm = 20'000;  // 2% per transmission
        if (seed % 5 == 2) model.dup_ppm = 20'000;
        fault::FaultInjector inj(model, seed);

        topo::TopologyOptions topo_opt;
        topo_opt.rounds = 30;
        topo_opt.period = 50;
        topo_opt.full_knowledge = (seed % 2 == 0);

        node::ParallelClusterConfig cfg;
        cfg.params.hop_delay = 2;
        cfg.params.ncu_delay = 2;
        cfg.ncu_delay_min = 1;
        cfg.seed = seed * 7919 + 1988;
        cfg.shards = shards;
        cfg.threads = threads;
        // Alternate delay models, both with positive lookahead: jittered
        // hop delays in [1, C] (window width 1) and fixed C (width 2).
        cfg.net.hop_delay_min = (seed % 2 == 0) ? 1 : -1;
        cfg.net.loss_ppm = model.loss_ppm;
        cfg.net.dup_ppm = model.dup_ppm;
        // A slice of seeds arms the hardware-discipline monitors
        // non-vacuously (same soundness conditions as the one-shard
        // chaos sweep: exact A1 gap only with serialized fixed-P sends).
        if (seed % 7 == 3) {
            cfg.free_multisend = false;
            cfg.ncu_delay_min = -1;
        }
        if (seed % 7 == 4) cfg.net.link_spacing = cfg.params.ncu_delay;
        obs::StandardMonitorOptions mon;
        mon.link_spacing = cfg.net.link_spacing;
        if (!cfg.free_multisend && cfg.ncu_delay_min < 0)
            mon.min_send_gap = cfg.params.ncu_delay;
        cfg.monitor_setup = [mon](obs::MonitorHub& hub) {
            obs::add_standard_monitors(hub, mon);
        };

        node::ParallelCluster cluster(
            g, topo::make_topology_maintenance(g.node_count(), topo_opt), cfg);
        cluster.start_all(0);
        cluster.schedule(inj.compile(g));

        exec::CaseResult r;
        r.name = "pmaint/seed" + std::to_string(seed);
        r.index = rows.size();
        r.completion = cluster.run();

        const cost::Metrics m = cluster.merged_metrics();
        r.system_calls = m.total_message_system_calls();
        r.direct_messages = m.total_direct_messages();
        r.hops = m.net().hops;
        r.set("violations", static_cast<double>(cluster.violation_count()));

        const fault::OracleReport rep = fault::check_theorem1(cluster);
        r.ok = rep.ok() && cluster.monitors_ok();
        if (!rep.ok()) std::cerr << r.name << " oracle: " << rep.summary() << "\n";
        if (!cluster.monitors_ok())
            std::cerr << r.name << ": " << cluster.violation_count()
                      << " monitor violation(s)\n";
        all_ok = all_ok && r.ok;
        rows.push_back(std::move(r));
    }

    // --- call workload through the sharded kernel -----------------------
    // The same hardened call agents + open-loop workload as the
    // sequential chaos sweep, run through ParallelCluster: timeouts,
    // backoff retries, leases and refresh packets all cross shard
    // boundaries, and the CallOracle must still find every unit of
    // capacity accounted for at quiescence. Call counters fold into the
    // row so the cross-(shards, threads) byte-diff pins them too.
    const unsigned call_seeds = seeds >= 10 ? 10 : seeds;
    for (std::uint64_t seed = 0; seed < call_seeds; ++seed) {
        auto g = std::make_shared<graph::Graph>(shape_for(seed + 5));

        fault::FaultModel model;
        model.link_flaps = 3 + static_cast<unsigned>(seed % 3);
        model.node_crashes = 2;  // crash-mid-setup inside the arrival window
        model.window_from = 40;
        model.window_to = 700;
        model.heal_at = 800;
        if (seed % 2 == 0) model.loss_ppm = 20'000;
        if (seed % 4 == 1) model.dup_ppm = 20'000;
        fault::FaultInjector inj(model, seed ^ 0xca115ULL);

        paris::CallAgentOptions aopt;
        aopt.link_capacity = 3;
        aopt.setup_timeout = 24;
        aopt.max_retries = 3;
        aopt.retry_backoff = 8;
        aopt.retry_jitter = 4;
        aopt.reservation_ttl = 150;
        aopt.refresh_interval = 50;
        aopt.max_inflight = 4;
        aopt.workload.arrivals = (seed % 3 == 2) ? paris::ArrivalProcess::kPareto
                                                 : paris::ArrivalProcess::kPoisson;
        aopt.workload.mean_interarrival = 60;
        aopt.workload.mean_hold = 80;
        aopt.workload.first_at = 10;
        aopt.workload.until = 700;

        node::ParallelClusterConfig cfg;
        cfg.params.hop_delay = 2;
        cfg.params.ncu_delay = 2;
        cfg.ncu_delay_min = 1;
        cfg.seed = seed * 7919 + 1988;
        cfg.shards = shards;
        cfg.threads = threads;
        cfg.net.hop_delay_min = (seed % 2 == 0) ? 1 : -1;
        cfg.net.loss_ppm = model.loss_ppm;
        cfg.net.dup_ppm = model.dup_ppm;
        obs::StandardMonitorOptions mon;
        cfg.monitor_setup = [mon](obs::MonitorHub& hub) {
            obs::add_standard_monitors(hub, mon);
        };

        node::ParallelCluster cluster(*g, paris::make_call_workload(g, aopt), cfg);
        cluster.start_all(0);
        cluster.schedule(inj.compile(*g));

        exec::CaseResult r;
        r.name = "pcalls/seed" + std::to_string(seed);
        r.index = rows.size();
        r.completion = cluster.run();

        const cost::Metrics m = cluster.merged_metrics();
        r.system_calls = m.total_message_system_calls();
        r.direct_messages = m.total_direct_messages();
        r.hops = m.net().hops;
        const cost::CallStats s = paris::fold_call_stats(cluster);
        r.set("offered", static_cast<double>(s.offered));
        r.set("accepted", static_cast<double>(s.accepted));
        r.set("blocked", static_cast<double>(s.shed + s.blocked));
        r.set("retries", static_cast<double>(s.retries));
        r.set("reaped", static_cast<double>(s.reaped));
        r.set("violations", static_cast<double>(cluster.violation_count()));

        const fault::OracleReport calls = fault::check_calls(cluster);
        r.ok = calls.ok() && cluster.monitors_ok();
        if (!calls.ok()) std::cerr << r.name << " call oracle: " << calls.summary() << "\n";
        if (!cluster.monitors_ok())
            std::cerr << r.name << ": " << cluster.violation_count()
                      << " monitor violation(s)\n";
        all_ok = all_ok && r.ok;
        rows.push_back(std::move(r));
    }

    const std::string json = exec::sweep_json("chaos_parallel", 1988, rows);
    if (!exec::write_text_file(out_path, json)) {
        std::cerr << "cannot write " << out_path << "\n";
        return 2;
    }
    std::cout << "wrote " << out_path << " (" << rows.size() << " cases, shards="
              << shards << ", threads="
              << (threads == 0 ? exec::ThreadPool::hardware_threads() : threads)
              << ")\n";
    return all_ok ? 0 : 1;
}
