// Experiments E4 + E5 (Theorem 1 and the Section 3 example).
//
// E4 — the paper's 6-node deadlock scenario: a converged network whose
//      three pendant links fail simultaneously. The DFS-token scheme
//      with the paper's adversarial tours never re-converges; the
//      one-way branching-paths broadcast always does; full-knowledge
//      payloads rescue even the DFS scheme.
//
// E5 — rounds-to-convergence from a cold start: O(d) with local-
//      topology payloads, O(log d) with full-knowledge payloads
//      (the comment after Theorem 1).
//
// The E5 grids run through exec::sweep_map — each (topology, payload
// mode) probe is one task — and the bench times the identical grid at 1
// thread and at hardware_concurrency, reporting the sweep speedup in
// BENCH_convergence.json (docs/PERF.md, "Parallel sweeps").
#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <memory>

#include "fastnet.hpp"
#include "json_reporter.hpp"

namespace {

using namespace fastnet;
using topo::BroadcastScheme;
using topo::TopologyOptions;

std::unique_ptr<node::ParallelCluster> podc_scenario(TopologyOptions opt) {
    const graph::Graph g = graph::make_podc_example();
    opt.dfs_preference = {{1}, {2}, {0}, {}, {}, {}};
    opt.period = 64;
    auto c = std::make_unique<node::ParallelCluster>(
        g, topo::make_topology_maintenance(g.node_count(), opt));
    c->start_all(0);
    c->fail_link(300, g.find_edge(0, 3));
    c->fail_link(300, g.find_edge(1, 4));
    c->fail_link(300, g.find_edge(2, 5));
    c->run();
    return c;
}

void experiment_e4(bench::JsonReporter& out) {
    struct Case {
        const char* name;
        BroadcastScheme scheme;
        bool full;
    };
    const std::vector<Case> cases{{"dfs-token", BroadcastScheme::kDfsToken, false},
                                  {"dfs-token", BroadcastScheme::kDfsToken, true},
                                  {"branching-paths", BroadcastScheme::kBranchingPaths, false},
                                  {"branching-paths", BroadcastScheme::kBranchingPaths, true}};
    struct Row {
        bool converged = false;
        std::uint64_t calls = 0;
    };
    const auto rows = exec::sweep_map(cases, [](const Case& c, exec::TaskContext&) {
        TopologyOptions opt;
        opt.scheme = c.scheme;
        opt.full_knowledge = c.full;
        opt.rounds = 40;
        auto cl = podc_scenario(opt);
        return Row{topo::all_views_converged(*cl),
                   cl->merged_metrics().total_message_system_calls()};
    });
    util::Table t({"scheme", "payload", "rounds_run", "converged", "system_calls"});
    for (std::size_t i = 0; i < cases.size(); ++i) {
        t.add(cases[i].name, cases[i].full ? "full-knowledge" : "local-topology", 40u,
              rows[i].converged, rows[i].calls);
        out.add(std::string("e4_") + cases[i].name +
                    (cases[i].full ? "_full_converged" : "_local_converged"),
                rows[i].converged ? 1 : 0, "bool");
    }
    t.print(std::cout,
            "E4: the Section 3 deadlock example — DFS token never converges with "
            "local payloads; one-way branching paths always does (Theorem 1)");
}

/// Smallest round budget after which all views converge from cold start.
unsigned rounds_to_converge(const graph::Graph& g, bool full_knowledge, unsigned max_rounds) {
    for (unsigned r = 1; r <= max_rounds; ++r) {
        TopologyOptions opt;
        opt.rounds = r;
        opt.full_knowledge = full_knowledge;
        opt.period = 64;
        node::ParallelCluster c(g, topo::make_topology_maintenance(g.node_count(), opt));
        c.start_all(0);
        c.run();
        if (topo::all_views_converged(c)) return r;
    }
    return max_rounds + 1;
}

struct E5Point {
    std::string name;
    graph::Graph graph;
    bool full_knowledge = false;
};

struct E5Row {
    unsigned rounds = 0;
    unsigned diameter = 0;
};

std::vector<E5Point> e5_grid() {
    std::vector<E5Point> grid;
    auto both = [&grid](const char* name, const graph::Graph& g) {
        grid.push_back({name, g, false});
        grid.push_back({name, g, true});
    };
    both("cycle32", graph::make_cycle(32));
    both("cycle64", graph::make_cycle(64));
    both("path48", graph::make_path(48));
    both("grid8x8", graph::make_grid(8, 8));
    Rng rng(5);
    both("random96", graph::make_random_connected(96, 1, 30, rng));
    return grid;
}

std::vector<E5Row> run_e5_grid(const std::vector<E5Point>& grid, unsigned threads) {
    exec::SweepOptions opt;
    opt.threads = threads;
    return exec::sweep_map(
        grid,
        [](const E5Point& p, exec::TaskContext&) {
            const unsigned d = graph::diameter(p.graph);
            return E5Row{rounds_to_converge(p.graph, p.full_knowledge, d + 4), d};
        },
        opt);
}

void experiment_e5(bench::JsonReporter& out) {
    const std::vector<E5Point> grid = e5_grid();

    // The same grid, serial then parallel: the rows must match and the
    // wall-clock ratio is the engine's headline number.
    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();
    const auto serial = run_e5_grid(grid, 1);
    const auto t1 = Clock::now();
    const unsigned hw = exec::ThreadPool::hardware_threads();
    const auto parallel = run_e5_grid(grid, hw);
    const auto t2 = Clock::now();

    util::Table t({"topology", "n", "diameter", "rounds_local", "rounds_full",
                   "~d", "~1+log2(d)"});
    for (std::size_t i = 0; i + 1 < grid.size(); i += 2) {
        const E5Point& p = grid[i];
        const unsigned d = serial[i].diameter;
        FASTNET_ENSURES_MSG(serial[i].rounds == parallel[i].rounds &&
                                serial[i + 1].rounds == parallel[i + 1].rounds,
                            "serial/parallel sweep divergence");
        t.add(p.name.c_str(), p.graph.node_count(), d, serial[i].rounds,
              serial[i + 1].rounds, d, 1 + ceil_log2(d + 1));
        out.add("e5_rounds_local_" + p.name, serial[i].rounds, "rounds");
        out.add("e5_rounds_full_" + p.name, serial[i + 1].rounds, "rounds");
    }
    t.print(std::cout,
            "E5: rounds to converge from cold start — O(d) local vs O(log d) "
            "full-knowledge (comment after Theorem 1)");

    const double serial_ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(t1 - t0).count();
    const double parallel_ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(t2 - t1).count();
    out.add("e5_sweep_serial_ms", serial_ms, "ms");
    out.add("e5_sweep_parallel_ms", parallel_ms, "ms");
    out.add("e5_sweep_threads", hw, "threads");
    out.add("e5_sweep_speedup", serial_ms / parallel_ms, "x");
}

void experiment_e5_failures(bench::JsonReporter& out) {
    const std::vector<unsigned> kill_counts{1u, 3u, 6u};
    struct Row {
        bool converged = false;
        NodeId n = 0;
    };
    const auto rows = exec::sweep_map(kill_counts, [](unsigned kills, exec::TaskContext&) {
        Rng rng(kills);
        const graph::Graph g = graph::make_random_connected(48, 3, 10, rng);
        TopologyOptions opt;
        opt.rounds = 16;
        opt.period = 64;
        node::ParallelCluster c(g, topo::make_topology_maintenance(g.node_count(), opt));
        c.start_all(0);
        Rng chaos(kills * 17 + 1);
        for (unsigned i = 0; i < kills; ++i) {
            const EdgeId e = static_cast<EdgeId>(chaos.below(g.edge_count()));
            c.fail_link(100 + 40 * i, e);
        }
        c.run();
        return Row{topo::all_views_converged(c), g.node_count()};
    });
    util::Table t({"n", "failures", "converged", "final_rounds"});
    for (std::size_t i = 0; i < kill_counts.size(); ++i) {
        t.add(rows[i].n, kill_counts[i], rows[i].converged, 16u);
        out.add("e5b_converged_kills" + std::to_string(kill_counts[i]),
                rows[i].converged ? 1 : 0, "bool");
    }
    t.print(std::cout, "E5b: convergence after failure bursts (then quiescence)");
}

void bm_maintenance_round(benchmark::State& state) {
    const NodeId n = static_cast<NodeId>(state.range(0));
    Rng rng(7);
    const graph::Graph g = graph::make_random_connected(n, 1, 10, rng);
    for (auto _ : state) {
        TopologyOptions opt;
        opt.rounds = 2;
        opt.period = 64;
        node::ParallelCluster c(g, topo::make_topology_maintenance(n, opt));
        c.start_all(0);
        c.run();
        benchmark::DoNotOptimize(c.merged_metrics().total_message_system_calls());
    }
}
BENCHMARK(bm_maintenance_round)->Range(32, 128);

}  // namespace

int main(int argc, char** argv) {
    bench::JsonReporter out("convergence");
    experiment_e4(out);
    experiment_e5(out);
    experiment_e5_failures(out);
    out.write();
    std::cout << "\n";
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
