// Experiments E1 + E2 (Section 3 headline claims).
//
// E1 — per-broadcast cost of topology dissemination:
//        branching-paths:  n-1 system calls,  <= 1 + floor(log2 n) units
//        ARPANET flooding: ~2m system calls,  O(eccentricity) units
//        direct unicast:   n-1 system calls,  1 unit, n-1 root sends
//      over random connected graphs of growing size and density.
//
// E2 — Theorem 2 time bound across adversarial tree shapes: paths,
//      stars, complete binary trees, caterpillars, random trees.
//
// The absolute tick counts are simulator units, not the authors' 1988
// testbed; the claims under test are the *shapes*: who is O(n) vs O(m)
// in calls and O(log n) vs O(n) in time.
#include <benchmark/benchmark.h>

#include <iostream>

#include "fastnet.hpp"
#include "json_reporter.hpp"

namespace {

using namespace fastnet;
using topo::BroadcastScheme;

void experiment_e1(bench::JsonReporter& rep, obs::BoundAudit& audit) {
    util::Table t({"n", "m", "scheme", "system_calls", "time_units", "messages",
                   "bound_1+log2n"});
    for (NodeId n : {16u, 64u, 256u, 1024u, 4096u}) {
        Rng rng(n);
        const graph::Graph g = graph::make_random_connected(n, 1, 2 * n, rng);
        for (auto scheme : {BroadcastScheme::kBranchingPaths, BroadcastScheme::kFlooding,
                            BroadcastScheme::kDirectUnicast}) {
            const auto out = topo::run_broadcast(g, scheme, 0);
            FASTNET_ENSURES(out.all_received);
            audit.broadcast(g, scheme, nullptr, out, ModelParams::fast_network());
            t.add(n, g.edge_count(), topo::scheme_name(scheme), out.cost.system_calls,
                  out.time_units, out.cost.direct_messages, 1 + floor_log2(n));
            if (scheme == BroadcastScheme::kBranchingPaths) {
                rep.add("e1_bp_calls_n" + std::to_string(n),
                        static_cast<double>(out.cost.system_calls), "calls");
                rep.add("e1_bp_time_n" + std::to_string(n),
                        static_cast<double>(out.time_units), "units");
            }
        }
    }
    t.print(std::cout,
            "E1: broadcast cost per scheme (paper: O(n) calls + O(log n) time vs "
            "O(m) calls + O(n) time)");
}

void experiment_e1_density(bench::JsonReporter& rep) {
    // Same n, growing density: branching-paths calls stay n-1 while
    // flooding tracks m.
    util::Table t({"n", "m", "bp_calls", "flood_calls", "flood/bp"});
    const NodeId n = 512;
    for (std::uint64_t p_num : {1u, 4u, 16u, 64u}) {
        Rng rng(p_num);
        const graph::Graph g = graph::make_random_connected(n, p_num, 1000, rng);
        const auto bp = topo::run_broadcast(g, BroadcastScheme::kBranchingPaths, 0);
        const auto fl = topo::run_broadcast(g, BroadcastScheme::kFlooding, 0);
        t.add(n, g.edge_count(), bp.cost.system_calls, fl.cost.system_calls,
              static_cast<double>(fl.cost.system_calls) /
                  static_cast<double>(bp.cost.system_calls));
        rep.add("e1b_flood_over_bp_m" + std::to_string(g.edge_count()),
                static_cast<double>(fl.cost.system_calls) /
                    static_cast<double>(bp.cost.system_calls),
                "x");
    }
    t.print(std::cout, "E1b: density sweep at n=512 — flooding scales with m, "
                       "branching-paths does not");
}

void experiment_e2(bench::JsonReporter& rep, obs::BoundAudit& audit) {
    util::Table t({"tree_shape", "n", "time_units", "bound_1+log2n", "within_bound"});
    bool all_within = true;
    auto run_tree = [&t, &all_within, &audit](const char* name, const graph::Graph& g) {
        const auto out = topo::run_broadcast(g, BroadcastScheme::kBranchingPaths, 0);
        FASTNET_ENSURES(out.all_received);
        audit.broadcast(g, BroadcastScheme::kBranchingPaths, nullptr, out,
                        ModelParams::fast_network());
        const unsigned bound = 1 + floor_log2(g.node_count());
        all_within &= out.time_units <= bound;
        t.add(name, g.node_count(), out.time_units, bound, out.time_units <= bound);
    };
    run_tree("path", graph::make_path(1024));
    run_tree("star", graph::make_star(1024));
    run_tree("binary", graph::make_complete_binary_tree(9));
    run_tree("caterpillar", graph::make_caterpillar(256, 3));
    run_tree("kary3", graph::make_kary_tree(1023, 3));
    for (std::uint64_t seed : {1, 2, 3}) {
        Rng rng(seed);
        run_tree("random", graph::make_random_tree(1024, rng));
    }
    rep.add("e2_all_within_bound", all_within ? 1 : 0, "bool");
    t.print(std::cout, "E2: Theorem 2 time bound across tree shapes");
}

// ---- microbenchmarks ----------------------------------------------------

void bm_label_and_decompose(benchmark::State& state) {
    const NodeId n = static_cast<NodeId>(state.range(0));
    Rng rng(1);
    const graph::Graph g = graph::make_random_tree(n, rng);
    const graph::RootedTree tree = graph::min_hop_tree(g, 0);
    for (auto _ : state) {
        auto labels = topo::label_tree(tree);
        auto d = topo::decompose_paths(tree, labels);
        benchmark::DoNotOptimize(d.time_units);
    }
    state.SetComplexityN(n);
}
BENCHMARK(bm_label_and_decompose)->Range(64, 16384)->Complexity(benchmark::oN);

void bm_plan_branching_paths(benchmark::State& state) {
    const NodeId n = static_cast<NodeId>(state.range(0));
    Rng rng(2);
    const graph::Graph g = graph::make_random_tree(n, rng);
    const graph::RootedTree tree = graph::min_hop_tree(g, 0);
    const hw::PortMap ports = hw::canonical_ports(g);
    for (auto _ : state) {
        auto plan = topo::plan_branching_paths(tree, ports);
        benchmark::DoNotOptimize(plan.routes.size());
    }
}
BENCHMARK(bm_plan_branching_paths)->Range(64, 4096);

void bm_full_broadcast_simulation(benchmark::State& state) {
    const NodeId n = static_cast<NodeId>(state.range(0));
    Rng rng(3);
    const graph::Graph g = graph::make_random_connected(n, 1, 2 * n, rng);
    for (auto _ : state) {
        const auto out =
            topo::run_broadcast(g, BroadcastScheme::kBranchingPaths, 0);
        benchmark::DoNotOptimize(out.cost.system_calls);
    }
}
BENCHMARK(bm_full_broadcast_simulation)->Range(64, 1024);

}  // namespace

int main(int argc, char** argv) {
    fastnet::bench::JsonReporter rep("broadcast");
    // Theorem 2 + flooding-contrast bounds, audited across every run and
    // exported for fastnet_report; a violated bound fails the bench.
    fastnet::obs::BoundAudit audit("broadcast");
    experiment_e1(rep, audit);
    experiment_e1_density(rep);
    experiment_e2(rep, audit);
    rep.write();
    fastnet::exec::write_text_file("AUDIT_broadcast.json", fastnet::obs::audit_json(audit));
    if (!audit.pass()) {
        std::cerr << "AUDIT FAILED: " << audit.violation_count()
                  << " theorem-bound violation(s); see AUDIT_broadcast.json\n";
        return 1;
    }
    std::cout << "\n";
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
