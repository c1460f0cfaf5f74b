// Experiment R1 (docs/ROBUSTNESS.md): ticks-to-reconvergence vs churn.
//
// A healed fault burst — link flaps plus hard node crash/restarts over a
// fixed window — hits a maintenance cluster that keeps broadcasting.
// Theorem 1 says every view becomes exact again after the last
// topological change; this bench measures *how long* that takes as the
// churn intensity grows, for local-topology vs full-knowledge payloads,
// and holds every run against the convergence oracle. Results go to
// BENCH_recovery.json (see docs/PERF.md, "Reading BENCH_*.json").
#include <benchmark/benchmark.h>

#include <iostream>
#include <string>
#include <vector>

#include "fastnet.hpp"
#include "json_reporter.hpp"

namespace {

using namespace fastnet;

constexpr Tick kHealAt = 600;
constexpr Tick kProbeStep = 25;  // reconvergence-time resolution

struct ChurnLevel {
    const char* name;
    unsigned crashes;
    unsigned flaps;
};

const std::vector<ChurnLevel> kLevels{
    {"calm", 0, 0}, {"light", 1, 2}, {"medium", 2, 4}, {"heavy", 4, 8}, {"extreme", 8, 16}};

struct Point {
    ChurnLevel level;
    bool full_knowledge = false;
    std::uint64_t seed = 0;
};

struct Row {
    Tick recovery_ticks = -1;  ///< -1: never reconverged within the run
    bool oracle_ok = false;
    std::uint64_t crashes = 0;
};

Row run_point(const Point& p) {
    Rng rng(33);
    const graph::Graph g = graph::make_random_connected(32, 2, 10, rng);

    fault::FaultModel model;
    model.link_flaps = p.level.flaps;
    model.node_crashes = p.level.crashes;
    model.window_from = 50;
    model.window_to = 500;
    model.heal_at = kHealAt;
    const fault::FaultInjector inj(model, 1988 + p.seed);

    topo::TopologyOptions topt;
    topt.rounds = 60;
    topt.period = 50;
    topt.full_knowledge = p.full_knowledge;

    node::ParallelClusterConfig cfg;
    inj.configure(cfg);
    node::ParallelCluster c(g, topo::make_topology_maintenance(g.node_count(), topt), cfg);
    c.start_all(0);
    c.schedule(inj.compile(c.graph()));

    // Step past the heal and probe every kProbeStep ticks: the first
    // instant all views are exact again, relative to the heal.
    Row row;
    for (Tick t = kHealAt + kProbeStep; t <= kHealAt + 60 * 50; t += kProbeStep) {
        c.run_until(t);
        if (topo::all_views_converged(c)) {
            row.recovery_ticks = t - kHealAt;
            break;
        }
    }
    c.run();
    row.oracle_ok = fault::check_theorem1(c).ok();
    const cost::Metrics m = c.merged_metrics();
    for (NodeId u = 0; u < c.node_count(); ++u) row.crashes += m.node(u).crashes;
    return row;
}

void experiment_r1(bench::JsonReporter& out) {
    constexpr unsigned kSeeds = 5;
    std::vector<Point> grid;
    for (const ChurnLevel& lvl : kLevels)
        for (int full = 0; full < 2; ++full)
            for (std::uint64_t s = 0; s < kSeeds; ++s)
                grid.push_back({lvl, full == 1, s});

    const auto rows =
        exec::sweep_map(grid, [](const Point& p, exec::TaskContext&) { return run_point(p); });

    util::Table t({"churn", "crashes_mean", "recovery_local", "recovery_full", "oracle"});
    for (std::size_t lvl = 0; lvl < kLevels.size(); ++lvl) {
        double mean[2] = {0, 0};
        double crashes = 0;
        bool all_ok = true;
        bool all_recovered = true;
        for (std::size_t i = 0; i < grid.size(); ++i) {
            if (std::string(grid[i].level.name) != kLevels[lvl].name) continue;
            const int m = grid[i].full_knowledge ? 1 : 0;
            all_ok &= rows[i].oracle_ok;
            all_recovered &= rows[i].recovery_ticks >= 0;
            mean[m] += static_cast<double>(rows[i].recovery_ticks) / kSeeds;
            if (m == 0) crashes += static_cast<double>(rows[i].crashes) / kSeeds;
        }
        FASTNET_ENSURES_MSG(all_ok && all_recovered,
                            "a recovery run violated the convergence oracle");
        t.add(kLevels[lvl].name, crashes, mean[0], mean[1], all_ok);
        out.add(std::string("r1_recovery_ticks_local_") + kLevels[lvl].name, mean[0], "ticks");
        out.add(std::string("r1_recovery_ticks_full_") + kLevels[lvl].name, mean[1], "ticks");
    }
    t.print(std::cout,
            "R1: mean ticks from heal to exact views (5 seeds, n=32) — Theorem 1's "
            "reconvergence vs churn intensity and payload mode");
}

// Phase-budget audit: one heavy-churn recovery run with live phase
// attribution (ParallelCluster::mark_phase + sampled metrics). Phase 1 is the
// clean broadcast prefix, phase 2 the fault window, phase 3 everything
// after the heal. Each phase's system calls are held against an
// executable bound — a broadcast round costs at most n*(n-1) receptions
// plus n initiations, i.e. < n^2 calls, and a phase spanning T ticks
// holds at most ceil(T / period) + 1 round starts per node (restarts can
// re-initiate, hence the slack factor). Verdicts ship as
// AUDIT_recovery.json for fastnet_report ingestion.
void experiment_phase_audit(bench::JsonReporter& out) {
    constexpr Tick kFaultsFrom = 50;
    Rng rng(33);
    const graph::Graph g = graph::make_random_connected(32, 2, 10, rng);

    fault::FaultModel model;
    model.link_flaps = 8;
    model.node_crashes = 4;
    model.window_from = kFaultsFrom;
    model.window_to = 500;
    model.heal_at = kHealAt;
    const fault::FaultInjector inj(model, 1988);

    topo::TopologyOptions topt;
    topt.rounds = 60;
    topt.period = 50;
    topt.full_knowledge = true;

    node::ParallelClusterConfig cfg;
    inj.configure(cfg);
    cfg.sample_window = 50;

    node::ParallelCluster c(g, topo::make_topology_maintenance(g.node_count(), topt), cfg);
    c.mark_phase(0, 1);
    c.mark_phase(kFaultsFrom, 2);
    c.mark_phase(kHealAt, 3);
    c.start_all(0);
    c.schedule(inj.compile(c.graph()));
    c.run();
    FASTNET_ENSURES_MSG(fault::check_theorem1(c).ok(),
                        "phase-audit run violated the convergence oracle");

    const cost::Metrics m = c.merged_metrics();
    const double n = static_cast<double>(g.node_count());
    const double per_round = n * n;
    const auto rounds_in = [&](Tick span) {
        return static_cast<double>(span / topt.period + 2);
    };
    obs::BoundAudit audit("recovery_phases");
    audit.phase_budget(m, 1, static_cast<std::uint64_t>(per_round * rounds_in(kFaultsFrom)));
    audit.phase_budget(
        m, 2, static_cast<std::uint64_t>(per_round * rounds_in(kHealAt - kFaultsFrom)));
    audit.phase_budget(m, 3, static_cast<std::uint64_t>(per_round * topt.rounds));
    FASTNET_ENSURES_MSG(audit.pass(), "a recovery phase blew its system-call budget");
    if (!exec::write_text_file("AUDIT_recovery.json", obs::audit_json(audit))) {
        std::cerr << "cannot write AUDIT_recovery.json\n";
    } else {
        std::cout << "wrote AUDIT_recovery.json (" << audit.checks().size()
                  << " phase budgets, pass=" << (audit.pass() ? "true" : "false")
                  << ")\n";
    }
    for (const auto& [phase, calls] : m.sampling()->phase_calls())
        out.add("r1_phase" + std::to_string(phase) + "_calls",
                static_cast<double>(calls), "calls");
}

void bm_crash_restart_cycle(benchmark::State& state) {
    const graph::Graph g = graph::make_cycle(8);
    node::ParallelCluster c(g, [](NodeId) { return std::make_unique<node::Protocol>(); });
    c.run();
    for (auto _ : state) {
        const Tick t = c.now() + 1;
        c.crash_node(t, 3);
        c.restart_node(t, 3);
        c.run();
        benchmark::DoNotOptimize(c.crashed(3));
    }
}
BENCHMARK(bm_crash_restart_cycle);

void bm_chaos_maintenance_run(benchmark::State& state) {
    const auto level = kLevels[3];  // heavy
    for (auto _ : state) {
        Point p;
        p.level = level;
        p.full_knowledge = true;
        const Row r = run_point(p);
        benchmark::DoNotOptimize(r.recovery_ticks);
    }
}
BENCHMARK(bm_chaos_maintenance_run)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    bench::JsonReporter out("recovery");
    experiment_r1(out);
    experiment_phase_audit(out);
    out.write();
    std::cout << "\n";
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
