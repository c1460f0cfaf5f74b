// Seeded chaos sweep for the ChaosSmoke ctest (scripts/chaos_smoke.sh).
//
// Compiles fault models (link flaps, hard node crash/restart, message
// loss and duplication, NCU stalls) into scenarios via fault::FaultInjector,
// runs them at sweep scale through exec::SweepRunner, and holds every
// seed against the fault::Oracle:
//
//   * maintenance cases — the full Theorem-1 bundle: quiescent, zero
//     in-flight packet cursors, every live view exact after the heal;
//   * router cases     — datagrams scripted before/during the faults must
//     arrive (retried over the re-converged view) despite loss + dup;
//   * election cases   — safety under crash churn: quiescent, no
//     in-flight, at most one live leader (liveness may be lost to a
//     killed token; safety never).
//
// The harness (scripts/chaos_smoke.sh) runs this binary at 1, 2 and
// hardware_concurrency threads and byte-diffs the JSON — chaos itself
// must be deterministic. Exits non-zero if any seed violates its oracle.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "election/election.hpp"
#include "exec/result.hpp"
#include "exec/sweep_runner.hpp"
#include "fault/call_oracle.hpp"
#include "fault/injector.hpp"
#include "fault/oracle.hpp"
#include "graph/generators.hpp"
#include "obs/metrics_export.hpp"
#include "obs/monitor.hpp"
#include "obs/trace_export.hpp"
#include "paris/call_setup.hpp"
#include "paris/workload.hpp"
#include "topo/router.hpp"
#include "topo/topology_maintenance.hpp"

using namespace fastnet;

namespace {

node::ParallelClusterConfig base_config() {
    node::ParallelClusterConfig cfg;
    cfg.params.hop_delay = 2;
    cfg.params.ncu_delay = 2;
    cfg.net.hop_delay_min = 0;
    cfg.ncu_delay_min = 1;
    return cfg;
}

graph::Graph shape_for(std::uint64_t seed) {
    switch (seed % 4) {
        case 0: return graph::make_cycle(10);
        case 1: return graph::make_grid(3, 4);
        case 2: {
            Rng g(seed * 131 + 7);
            return graph::make_random_connected(12, 2, 5, g);
        }
        default: {
            Rng g(seed * 131 + 7);
            return graph::make_random_connected(14, 3, 5, g);
        }
    }
}

}  // namespace

int main(int argc, char** argv) {
    unsigned threads = 0;
    unsigned seeds = 100;
    std::string out_path = "chaos_smoke.json";
    std::string trace_case;
    std::string trace_prefix = "chaos_trace";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
            threads = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
            seeds = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--trace-case") == 0 && i + 1 < argc) {
            trace_case = argv[++i];
        } else if (std::strcmp(argv[i], "--trace-prefix") == 0 && i + 1 < argc) {
            trace_prefix = argv[++i];
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--threads N] [--seeds N] [--out FILE]\n"
                      << "  [--trace-case NAME] [--trace-prefix P]\n"
                      << "  --threads 0 (default) uses hardware_concurrency\n"
                      << "  --trace-case attaches a trace + sampling to the named case\n"
                      << "  and exports P.canonical.json / P.chrome.json / P.metrics.json\n";
            return 2;
        }
    }

    exec::SweepOptions opt;
    opt.threads = threads;
    opt.master_seed = 1988;  // the paper's year
    exec::SweepRunner runner(opt);

    // Observability hook: the named case records into its own trace and
    // exports both formats (plus sampled metrics) from its probe. Export
    // content derives only from the case's deterministic simulation, so
    // the files byte-diff clean across thread counts — the TraceSmoke
    // ctest (scripts/trace_smoke.sh) relies on it.
    bool trace_case_found = false;
    auto maybe_trace = [&](exec::ClusterCase& c) {
        // Every chaos case runs with the full standard monitor set
        // (lineage conservation, busy-window monotonicity, queue-depth
        // ceiling, per-edge link FIFO, A1 serialized send): a violating
        // seed clears its row's ok and records the first violating event
        // into the case's trace. The per-case hub keeps the sweep
        // byte-identical at any thread count. The hardware-discipline
        // thresholds come from the case's own config, so they are exact:
        // spacing is checked when the fabric enforces it, and the A1 send
        // gap is P only when sends are serialized at a fixed P (jittered
        // NCU delays make consecutive handlers finish closer than P).
        obs::StandardMonitorOptions mon;
        mon.link_spacing = c.config.net.link_spacing;
        if (!c.config.free_multisend && c.config.ncu_delay_min < 0)
            mon.min_send_gap = c.config.params.ncu_delay;
        c.config.monitor_setup = [mon](obs::MonitorHub& hub) {
            obs::add_standard_monitors(hub, mon);
        };
        if (trace_case.empty() || c.name != trace_case) return;
        trace_case_found = true;
        c.config.trace_capacity = std::size_t{1} << 20;
        c.config.sample_window = 50;
        auto inner = std::move(c.probe);
        c.probe = [inner, prefix = trace_prefix, name = c.name](
                      node::ParallelCluster& cluster, const cost::Metrics& m,
                      exec::CaseResult& r) {
            if (inner) inner(cluster, m, r);
            const obs::ExportMeta meta = obs::make_meta(cluster.graph(), name);
            const std::vector<sim::TraceRecord> trace = cluster.merged_trace();
            if (!exec::write_text_file(
                    prefix + ".canonical.json",
                    obs::canonical_trace_json(trace, meta, cluster.trace_total_recorded(),
                                              cluster.trace_dropped(),
                                              cluster.trace_detail_dropped())) ||
                !exec::write_text_file(prefix + ".chrome.json",
                                       obs::chrome_trace_json(trace, meta)) ||
                !exec::write_text_file(prefix + ".metrics.json", obs::metrics_json(m, name)) ||
                !exec::write_text_file(
                    prefix + ".monitors.json",
                    obs::violations_json(cluster.monitor_count(), cluster.violation_count(),
                                         cluster.merged_violations(), name))) {
                std::cerr << "cannot write trace exports with prefix " << prefix << "\n";
                r.ok = false;
            }
        };
    };

    // --- maintenance under crash churn: the Theorem-1 oracle -----------
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
        if (seed % 5 == 1) model.loss_ppm = 20'000;   // 2% per transmission
        if (seed % 5 == 2) model.dup_ppm = 20'000;
        fault::FaultInjector inj(model, seed);

        topo::TopologyOptions topo_opt;
        topo_opt.rounds = 30;
        topo_opt.period = 50;
        // Mix modes: full-knowledge floods the database (fast recovery of
        // a restarted node); plain mode makes it relearn peer by peer.
        topo_opt.full_knowledge = (seed % 2 == 0);

        node::ParallelClusterConfig cfg = base_config();
        inj.configure(cfg);
        // A slice of seeds exercises the hardware-discipline monitors
        // non-vacuously: A1 serialized sends at a fixed P (the monitor
        // then checks the exact gap) and finite link capacity.
        if (seed % 7 == 3) {
            cfg.free_multisend = false;
            cfg.ncu_delay_min = -1;
        }
        if (seed % 7 == 4) cfg.net.link_spacing = cfg.params.ncu_delay;

        exec::ClusterCase c;
        c.name = "maint/seed" + std::to_string(seed);
        c.protocol = topo::make_topology_maintenance(g.node_count(), topo_opt);
        c.config = cfg;
        c.scenario = inj.compile(g);
        c.graph = std::move(g);
        c.probe = [](node::ParallelCluster& cluster, const cost::Metrics&, exec::CaseResult& r) {
            const fault::OracleReport rep = fault::check_theorem1(cluster);
            r.ok = rep.ok();
            if (!rep.ok()) std::cerr << "oracle: " << rep.summary() << "\n";
        };
        maybe_trace(c);
        runner.add(std::move(c));
    }

    // --- router delivery across crash + loss + duplication -------------
    const unsigned router_cases = seeds >= 20 ? 20 : seeds;
    for (std::uint64_t seed = 0; seed < router_cases; ++seed) {
        graph::Graph g = shape_for(seed + 3);
        const NodeId src = 0;
        const NodeId dst = g.node_count() - 1;

        fault::FaultModel model;
        model.link_flaps = 4;
        model.node_crashes = 2;
        model.window_from = 50;
        model.window_to = 600;
        model.heal_at = 700;
        model.protect_nodes = {src, dst};  // the measured pair stays up
        model.loss_ppm = 20'000;
        model.dup_ppm = 20'000;
        fault::FaultInjector inj(model, seed ^ 0x907e5ULL);

        topo::RouterOptions ropt;
        ropt.topology.rounds = 30;
        ropt.topology.period = 50;
        ropt.topology.full_knowledge = true;
        ropt.retry_period = 128;
        ropt.max_retries = 40;

        std::map<NodeId, std::vector<topo::SendRequest>> sends;
        sends[src] = {{40, dst, 7001}, {300, dst, 7002}};

        node::ParallelClusterConfig cfg = base_config();
        inj.configure(cfg);

        exec::ClusterCase c;
        c.name = "router/seed" + std::to_string(seed);
        c.protocol = topo::make_routers(g.node_count(), ropt, sends);
        c.config = cfg;
        c.scenario = inj.compile(g);
        c.graph = std::move(g);
        c.probe = [src, dst](node::ParallelCluster& cluster, const cost::Metrics&,
                             exec::CaseResult& r) {
            fault::Oracle o(cluster);
            o.require_quiescent()
                .require_no_inflight()
                .require_views_converged()
                .require_received(dst, src, 7001)
                .require_received(dst, src, 7002);
            r.ok = o.ok();
            if (!o.ok()) std::cerr << "oracle: " << o.report().summary() << "\n";
        };
        maybe_trace(c);
        runner.add(std::move(c));
    }

    // --- election safety under crash churn ------------------------------
    const unsigned election_cases = seeds >= 12 ? 12 : seeds;
    for (std::uint64_t seed = 0; seed < election_cases; ++seed) {
        graph::Graph g = shape_for(seed + 1);

        fault::FaultModel model;
        model.link_flaps = 3;
        model.node_crashes = 3;
        model.window_from = 20;
        model.window_to = 400;
        model.heal_at = 500;
        // No loss/dup: duplicated tokens would break the election's
        // mutual-exclusion premise (see fault/injector.hpp).
        fault::FaultInjector inj(model, seed ^ 0xe1ec7ULL);

        exec::ClusterCase c;
        c.name = "election/seed" + std::to_string(seed);
        c.protocol = [](NodeId) { return std::make_unique<elect::ElectionProtocol>(); };
        c.config = base_config();
        c.scenario = inj.compile(g);
        c.graph = std::move(g);
        c.probe = [](node::ParallelCluster& cluster, const cost::Metrics&, exec::CaseResult& r) {
            fault::Oracle o(cluster);
            o.require_quiescent().require_no_inflight().require_at_most_one_leader();
            r.ok = o.ok();
            if (!o.ok()) std::cerr << "oracle: " << o.report().summary() << "\n";
        };
        maybe_trace(c);
        runner.add(std::move(c));
    }

    // --- sustained call workload under loss, cuts and crash-mid-setup ---
    // Hardened PARIS call agents driven by an open-loop Poisson/Pareto
    // workload while the injector flaps links, drops/dups packets and
    // crashes nodes inside the arrival window (so setups are cut mid
    // flight and sources crash with reservations outstanding). The
    // CallOracle then audits capacity conservation at quiescence:
    // records == ledger at every node, nothing over capacity, nothing
    // still reserved, no call left in a non-terminal state.
    const unsigned call_cases = seeds >= 16 ? 16 : seeds;
    for (std::uint64_t seed = 0; seed < call_cases; ++seed) {
        auto g = std::make_shared<graph::Graph>(shape_for(seed + 5));

        fault::FaultModel model;
        model.link_flaps = 3 + static_cast<unsigned>(seed % 3);
        model.node_crashes = 2;  // crash-mid-setup: inside the arrival window
        model.window_from = 40;
        model.window_to = 700;
        model.heal_at = 800;
        if (seed % 2 == 0) model.loss_ppm = 20'000;  // 2% per transmission
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
        aopt.workload.mean_hold = 80;  // finite: leases + refresh need quiescence
        aopt.workload.first_at = 10;
        aopt.workload.until = 700;

        node::ParallelClusterConfig cfg = base_config();
        inj.configure(cfg);

        exec::ClusterCase c;
        c.name = "calls/seed" + std::to_string(seed);
        c.protocol = paris::make_call_workload(g, aopt);
        c.config = cfg;
        c.scenario = inj.compile(*g);
        c.graph = *g;
        c.probe = [](node::ParallelCluster& cluster, const cost::Metrics&, exec::CaseResult& r) {
            const fault::OracleReport calls = fault::check_calls(cluster);
            fault::Oracle o(cluster);
            o.require_quiescent().require_no_inflight();
            r.ok = calls.ok() && o.ok();
            if (!calls.ok()) std::cerr << "call oracle: " << calls.summary() << "\n";
            if (!o.ok()) std::cerr << "oracle: " << o.report().summary() << "\n";
            // Fold the call counters into the row so the cross-thread
            // byte-diff also pins the workload + retry/backoff behaviour.
            const cost::CallStats s = paris::fold_call_stats(cluster);
            r.set("offered", static_cast<double>(s.offered));
            r.set("accepted", static_cast<double>(s.accepted));
            r.set("blocked", static_cast<double>(s.shed + s.blocked));
            r.set("retries", static_cast<double>(s.retries));
            r.set("reaped", static_cast<double>(s.reaped));
        };
        maybe_trace(c);
        runner.add(std::move(c));
    }

    if (!trace_case.empty() && !trace_case_found) {
        std::cerr << "--trace-case " << trace_case << " matches no case\n";
        return 2;
    }

    const auto rows = runner.run();
    bool all_ok = true;
    for (const auto& r : rows)
        if (!r.ok) {
            std::cerr << "seed violated its oracle: " << r.name << "\n";
            all_ok = false;
        }
    const std::string json = exec::sweep_json("chaos_smoke", opt.master_seed, rows);
    if (!exec::write_text_file(out_path, json)) {
        std::cerr << "cannot write " << out_path << "\n";
        return 2;
    }
    std::cout << "wrote " << out_path << " (" << rows.size() << " cases, threads="
              << (threads == 0 ? exec::ThreadPool::hardware_threads() : threads) << ")\n";
    return all_ok ? 0 : 1;
}
