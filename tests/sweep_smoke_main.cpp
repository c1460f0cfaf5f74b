// Tiny fixed sweep for the SweepSmoke ctest (scripts/sweep_smoke.sh).
//
// Runs a small maintenance-under-churn grid through exec::SweepRunner at
// a caller-chosen thread count and writes the canonical sweep JSON. The
// harness runs this binary at 1, 2 and hardware_concurrency threads and
// byte-diffs the outputs: any scheduling dependence in the engine shows
// up as a diff, straight from the command line, with no gtest in the
// loop. Exits non-zero if any case fails to converge.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "exec/result.hpp"
#include "exec/sweep_runner.hpp"
#include "graph/generators.hpp"
#include "topo/topology_maintenance.hpp"

using namespace fastnet;

int main(int argc, char** argv) {
    unsigned threads = 0;
    std::string out_path = "sweep_smoke.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
            threads = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::cerr << "usage: " << argv[0] << " [--threads N] [--out FILE]\n"
                      << "  --threads 0 (default) uses hardware_concurrency\n";
            return 2;
        }
    }

    exec::SweepOptions opt;
    opt.threads = threads;
    opt.master_seed = 88;
    exec::SweepRunner runner(opt);

    struct Shape {
        const char* name;
        graph::Graph graph;
    };
    Rng gen(5);
    const Shape shapes[] = {
        {"ring10", graph::make_cycle(10)},
        {"grid3x4", graph::make_grid(3, 4)},
        {"random12", graph::make_random_connected(12, 2, 5, gen)},
    };
    for (const Shape& s : shapes) {
        for (std::uint64_t chaos_seed : {1ull, 2ull}) {
            topo::TopologyOptions topo_opt;
            topo_opt.rounds = 24;
            topo_opt.period = 40;
            node::ParallelClusterConfig cfg;
            cfg.params.hop_delay = 2;
            cfg.params.ncu_delay = 2;
            cfg.net.hop_delay_min = 0;
            cfg.ncu_delay_min = 1;
            Rng chaos(chaos_seed * 17 + 1);
            node::Scenario scenario = node::Scenario::random_churn(s.graph, 6, 30, 300, chaos);
            scenario.heal_all(350);

            exec::ClusterCase c;
            c.name = std::string(s.name) + "/chaos" + std::to_string(chaos_seed);
            c.graph = s.graph;
            c.protocol = topo::make_topology_maintenance(s.graph.node_count(), topo_opt);
            c.config = cfg;
            c.scenario = std::move(scenario);
            c.probe = [](node::ParallelCluster& cluster, const cost::Metrics&,
                         exec::CaseResult& r) {
                r.ok = topo::all_views_converged(cluster);
            };
            runner.add(std::move(c));
        }
    }

    const auto rows = runner.run();
    bool all_ok = true;
    for (const auto& r : rows)
        if (!r.ok) {
            std::cerr << "case failed to converge: " << r.name << "\n";
            all_ok = false;
        }
    const std::string json = exec::sweep_json("sweep_smoke", opt.master_seed, rows);
    if (!exec::write_text_file(out_path, json)) {
        std::cerr << "cannot write " << out_path << "\n";
        return 2;
    }
    std::cout << "wrote " << out_path << " (" << rows.size() << " cases, threads="
              << (threads == 0 ? exec::ThreadPool::hardware_threads() : threads) << ")\n";
    return all_ok ? 0 : 1;
}
