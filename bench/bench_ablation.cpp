// Ablations of the model features DESIGN.md calls out.
//
// A1 — the free multi-link send ("at no extra processing cost",
//      Section 2, validated on PARIS): without it every extra packet
//      injected by a handler costs P, so high-degree branch points of
//      the broadcast serialize and the Theorem 2 time bound degrades
//      by a degree factor.
// A2 — the dmax path-length restriction: maximum ANR header lengths per
//      broadcast scheme (layered-BFS needs O(n^2); the rest O(n)).
// A3 — the election's INOUT-tree return routes versus naive reverse
//      concatenation (the paper rejects the latter because its length
//      "may be more than n").
// A4 — the FIFO requirement of Section 5: with randomized (sub-worst-
//      case) delays the gather finishes no later than the prediction;
//      the prediction is exactly the worst case.
//
// Every ablation grid is a set of independent simulations, so they all
// run through exec::sweep_map, and the headline numbers land in
// BENCH_ablation.json.
#include <benchmark/benchmark.h>

#include <iostream>

#include "fastnet.hpp"
#include "json_reporter.hpp"

namespace {

using namespace fastnet;
using topo::BroadcastScheme;

void ablation_a1(bench::JsonReporter& out) {
    struct Point {
        std::string name;
        graph::Graph graph;
    };
    std::vector<Point> grid;
    grid.push_back({"star", graph::make_star(256)});
    grid.push_back({"binary", graph::make_complete_binary_tree(7)});
    grid.push_back({"path", graph::make_path(256)});
    grid.push_back({"caterpillar", graph::make_caterpillar(64, 3)});
    Rng rng(4);
    grid.push_back({"random", graph::make_random_tree(256, rng)});

    struct Row {
        double with = 0, without = 0;
    };
    const auto rows = exec::sweep_map(grid, [](const Point& p, exec::TaskContext&) {
        const auto with = topo::run_broadcast(p.graph, BroadcastScheme::kBranchingPaths, 0);
        node::ParallelClusterConfig cfg;
        cfg.free_multisend = false;
        const auto without =
            topo::run_broadcast(p.graph, BroadcastScheme::kBranchingPaths, 0, cfg);
        FASTNET_ENSURES(with.all_received && without.all_received);
        return Row{static_cast<double>(with.time_units),
                   static_cast<double>(without.time_units)};
    });
    util::Table t({"topology", "n", "units_free_multisend", "units_serialized",
                   "slowdown"});
    for (std::size_t i = 0; i < grid.size(); ++i) {
        t.add(grid[i].name.c_str(), grid[i].graph.node_count(), rows[i].with,
              rows[i].without, rows[i].without / rows[i].with);
        out.add("a1_slowdown_" + grid[i].name, rows[i].without / rows[i].with, "x");
    }
    t.print(std::cout,
            "A1: broadcast time with vs without the free multi-link send — "
            "high-degree roots serialize without it");
}

void ablation_a2(bench::JsonReporter& out) {
    struct Point {
        std::string shape;
        graph::Graph graph;
        BroadcastScheme scheme;
    };
    std::vector<Point> grid;
    auto add_shape = [&grid](const char* shape, const graph::Graph& g) {
        for (auto scheme : {BroadcastScheme::kBranchingPaths, BroadcastScheme::kDfsToken,
                            BroadcastScheme::kLayeredBfs, BroadcastScheme::kDirectUnicast})
            grid.push_back({shape, g, scheme});
    };
    for (NodeId exp : {5u, 7u}) add_shape("binary", graph::make_complete_binary_tree(exp));
    // Deep trees are the worst case for layered BFS: the header revisits
    // every prefix layer — Theta(n^2) labels on a path.
    for (NodeId n : {32u, 64u, 128u}) add_shape("path", graph::make_path(n));

    const auto rows = exec::sweep_map(grid, [](const Point& p, exec::TaskContext&) {
        return topo::run_broadcast(p.graph, p.scheme, 0).cost.max_header_len;
    });
    util::Table t({"shape", "n", "scheme", "max_header_len", "len/n"});
    double worst_len_over_n = 0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const NodeId n = grid[i].graph.node_count();
        const double growth = static_cast<double>(rows[i]) / static_cast<double>(n);
        worst_len_over_n = std::max(worst_len_over_n, growth);
        t.add(grid[i].shape.c_str(), n, topo::scheme_name(grid[i].scheme), rows[i], growth);
    }
    out.add("a2_worst_header_len_over_n", worst_len_over_n, "labels_per_node");
    t.print(std::cout,
            "A2: maximum ANR header length (labels) — layered-BFS needs "
            "Theta(n^2) headers on deep trees, hence unbounded dmax; the "
            "others stay O(n)");
}

void ablation_a3(bench::JsonReporter& out) {
    const std::vector<NodeId> sizes{64u, 256u, 1024u};
    struct Row {
        std::size_t actual = 0, naive = 0;
    };
    const auto rows = exec::sweep_map(sizes, [](NodeId n, exec::TaskContext&) {
        Rng rng(n + 7);
        const graph::Graph g = graph::make_random_connected(n, 1, 20, rng);
        const auto r = elect::run_election(g);
        FASTNET_ENSURES(r.unique_leader);
        return Row{r.max_return_len, r.max_naive_return_len};
    });
    util::Table t({"n", "actual_max_return_anr", "naive_reverse_concat", "naive/n"});
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        t.add(sizes[i], rows[i].actual, rows[i].naive,
              static_cast<double>(rows[i].naive) / sizes[i]);
        out.add("a3_max_return_anr_n" + std::to_string(sizes[i]),
                static_cast<double>(rows[i].actual), "labels");
    }
    t.print(std::cout,
            "A3: election return routes — INOUT-tree splices stay <= 2n while "
            "naive reverse concatenation keeps growing");
}

void ablation_a4(bench::JsonReporter& out) {
    struct Point {
        std::uint64_t n = 0;
        Tick c = 0, p = 0;
    };
    std::vector<Point> grid;
    for (std::uint64_t n : {32ull, 128ull})
        for (auto [c, p] : std::vector<std::pair<Tick, Tick>>{{4, 2}, {8, 4}})
            grid.push_back({n, c, p});

    struct Row {
        Tick worst = 0, jittered = 0;
    };
    const auto rows = exec::sweep_map(grid, [](const Point& pt, exec::TaskContext&) {
        const auto r = gsf::build_optimal_tree(pt.n, pt.c, pt.p);
        ModelParams params;
        params.hop_delay = pt.c;
        params.ncu_delay = pt.p;
        const auto worst = gsf::run_tree_gather(r.tree, params);
        // Re-run with randomized sub-worst-case delays: C' in [0, C],
        // P' in [1, P]; FIFO still enforced per link.
        node::ParallelClusterConfig cfg;
        cfg.params = params;
        cfg.net.hop_delay_min = 0;
        cfg.ncu_delay_min = 1;
        cfg.seed = pt.n * 31 + static_cast<std::uint64_t>(pt.c);
        auto spec = std::make_shared<gsf::GatherSpec>();
        spec->tree = r.tree;
        spec->combine = gsf::combine_sum();
        Rng rin(99);
        spec->inputs.resize(pt.n);
        for (auto& v : spec->inputs) v = rin.below(1000);
        node::ParallelCluster cluster(graph::make_complete(static_cast<NodeId>(pt.n)),
                              [&spec](NodeId) {
                                  return std::make_unique<gsf::TreeGatherProtocol>(spec);
                              },
                              cfg);
        cluster.start_all(0);
        cluster.run();
        const auto& root = cluster.protocol_as<gsf::TreeGatherProtocol>(0);
        return Row{worst.completion, root.done_time()};
    });
    util::Table t({"n", "C", "P", "worst_case_completion", "jittered_completion",
                   "jittered<=worst"});
    bool all_within = true;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        all_within &= rows[i].jittered <= rows[i].worst;
        t.add(grid[i].n, grid[i].c, grid[i].p, rows[i].worst, rows[i].jittered,
              rows[i].jittered <= rows[i].worst);
    }
    out.add("a4_jittered_within_worst", all_within ? 1 : 0, "bool");
    t.print(std::cout,
            "A4: the S(t) prediction is a worst case — randomized (smaller) "
            "delays always finish no later");
}

void ablation_a6(bench::JsonReporter& out) {
    struct Point {
        unsigned depth = 0;
        BroadcastScheme scheme = BroadcastScheme::kBranchingPaths;
    };
    std::vector<Point> grid;
    for (unsigned depth : {4u, 6u, 8u})
        for (auto scheme : {BroadcastScheme::kBranchingPaths, BroadcastScheme::kDirectUnicast})
            grid.push_back({depth, scheme});

    struct Row {
        double free_units = 0, spaced_units = 0;
        NodeId n = 0;
    };
    const auto rows = exec::sweep_map(grid, [](const Point& p, exec::TaskContext&) {
        const graph::Graph g = graph::make_complete_binary_tree(p.depth);
        const auto free = topo::run_broadcast(g, p.scheme, 0);
        node::ParallelClusterConfig cfg;
        cfg.net.link_spacing = 1;
        const auto spaced = topo::run_broadcast(g, p.scheme, 0, cfg);
        return Row{static_cast<double>(free.time_units),
                   static_cast<double>(spaced.time_units), g.node_count()};
    });
    util::Table t({"depth", "n", "scheme", "units_infinite_links", "units_spaced",
                   "thm3_lower_bound"});
    for (std::size_t i = 0; i < grid.size(); ++i) {
        t.add(grid[i].depth, rows[i].n, topo::scheme_name(grid[i].scheme),
              rows[i].free_units, rows[i].spaced_units,
              topo::one_way_lower_bound(grid[i].depth));
        if (grid[i].scheme == BroadcastScheme::kDirectUnicast)
            out.add("a6_unicast_spaced_depth" + std::to_string(grid[i].depth),
                    rows[i].spaced_units, "units");
    }
    t.print(std::cout,
            "A6: finite link capacity (1 packet/link/unit) — direct unicast's "
            "1-unit trick evaporates; branching paths, which already sends one "
            "message per link per wave, is untouched (Theorem 3's implicit "
            "model)");
}

void bm_broadcast_serialized_sends(benchmark::State& state) {
    const graph::Graph g = graph::make_star(static_cast<NodeId>(state.range(0)));
    node::ParallelClusterConfig cfg;
    cfg.free_multisend = false;
    for (auto _ : state) {
        const auto out = topo::run_broadcast(g, BroadcastScheme::kBranchingPaths, 0, cfg);
        benchmark::DoNotOptimize(out.elapsed);
    }
}
BENCHMARK(bm_broadcast_serialized_sends)->Range(64, 1024);

}  // namespace

int main(int argc, char** argv) {
    bench::JsonReporter out("ablation");
    ablation_a1(out);
    ablation_a2(out);
    ablation_a3(out);
    ablation_a4(out);
    ablation_a6(out);
    out.write();
    std::cout << "\n";
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
