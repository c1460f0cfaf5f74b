// Experiment P1 (docs/PERF.md, "The parallel event kernel"): the
// spatially-partitioned conservative-PDES kernel on one large run.
//
// Two claims are held here, every run of the bench:
//
//   1. Determinism — the same scripted run merges to byte-identical
//      canonical trace / metrics / violations JSON at shard counts
//      {1, 2, 7} and worker threads {1, 2, hardware}; FASTNET_ENSURES
//      aborts the bench on the first diverging byte.
//   2. Scale — an E1-scale run (n = 512 maintenance broadcast load)
//      reports ns/hop on one shard and the speedup of sharded execution
//      over it. On one core the honest speedup is ~1.0x or below
//      (barriers are pure overhead without parallel hardware); the
//      structural win is that shards share nothing between barriers, so
//      the same binary scales with cores (docs/PERF.md discusses the
//      trade-off).
//
// The single-shard per-hop cost itself is gated by bench_sim_core's
// hop_ns and bench_memory_scale's mirrored hop_ns. The one-shard run's
// heap allocations are counted too (a counting operator new, as in
// bench_memory_scale): per NCU delivery outside the rounds, per round,
// and in all.
//
// Results go to BENCH_parallel_sim.json.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include "fastnet.hpp"
#include "json_reporter.hpp"

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
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
    return ::operator new(size, tag);
}
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

// ---------------------------------------------------------------------
// Shared workload: a maintenance broadcast storm with a little scripted
// churn — every node floods its topology `rounds` times while two links
// flap. Fixed hop delay C = 2 gives the partitioned kernel lookahead 2.

graph::Graph load_graph(NodeId n) {
    Rng rng(404);
    return graph::make_random_connected(n, 2, 7, rng);
}

topo::TopologyOptions load_options(unsigned rounds) {
    topo::TopologyOptions opt;
    opt.period = 64;
    opt.rounds = rounds;
    return opt;
}

node::ParallelClusterConfig parallel_config(unsigned shards, unsigned threads,
                                            std::size_t trace_capacity) {
    node::ParallelClusterConfig cfg;
    cfg.params.hop_delay = 2;
    cfg.params.ncu_delay = 1;
    cfg.net.hop_delay_min = -1;
    cfg.seed = 1988;
    cfg.shards = shards;
    cfg.threads = threads;
    cfg.trace_capacity = trace_capacity;
    if (trace_capacity > 0)
        cfg.monitor_setup = [](obs::MonitorHub& hub) {
            obs::add_standard_monitors(hub, obs::StandardMonitorOptions{});
        };
    return cfg;
}

void script_load(node::ParallelCluster& c) {
    c.start_all(0);
    c.fail_link(70, 0);
    c.restore_link(130, 0);
    c.fail_link(200, 1);
    c.restore_link(260, 1);
}

struct ParallelRun {
    Tick completion = 0;
    std::uint64_t hops = 0;
    std::string trace_json;
    std::string metrics_json;
    std::string violations_json;
};

ParallelRun run_parallel(NodeId n, unsigned rounds, unsigned shards, unsigned threads,
                         std::size_t trace_capacity) {
    node::ParallelCluster c(load_graph(n),
                            topo::make_topology_maintenance(n, load_options(rounds)),
                            parallel_config(shards, threads, trace_capacity));
    script_load(c);
    ParallelRun r;
    r.completion = c.run();
    const cost::Metrics m = c.merged_metrics();
    r.hops = m.net().hops;
    r.metrics_json = obs::metrics_json(m, "parallel_load");
    if (trace_capacity > 0) {
        FASTNET_ENSURES_MSG(c.trace_dropped() == 0, "trace ring too small for identity");
        const obs::ExportMeta meta = obs::make_meta(c.graph(), "parallel_load");
        r.trace_json =
            obs::canonical_trace_json(c.merged_trace(), meta, c.trace_total_recorded(),
                                      c.trace_dropped(), c.trace_detail_dropped());
        r.violations_json = obs::violations_json(c.monitor_count(), c.violation_count(),
                                                 c.merged_violations(), "parallel_load");
        FASTNET_ENSURES_MSG(c.monitors_ok(), "monitor violation in the load scenario");
    }
    return r;
}

// ---------------------------------------------------------------------
// Claim 1: byte-identity across (shards, threads), traced + monitored.

void experiment_identity(bench::JsonReporter& out) {
    constexpr NodeId kNodes = 96;
    constexpr unsigned kRounds = 6;
    constexpr std::size_t kRing = std::size_t{1} << 19;

    const ParallelRun base = run_parallel(kNodes, kRounds, 1, 1, kRing);
    const struct {
        unsigned shards, threads;
    } grid[] = {{2, 1}, {2, 2}, {7, 0}};
    for (const auto& p : grid) {
        const ParallelRun r = run_parallel(kNodes, kRounds, p.shards, p.threads, kRing);
        FASTNET_ENSURES_MSG(r.completion == base.completion,
                            "completion time diverged across shard counts");
        FASTNET_ENSURES_MSG(r.trace_json == base.trace_json,
                            "canonical trace diverged across (shards, threads)");
        FASTNET_ENSURES_MSG(r.metrics_json == base.metrics_json,
                            "metrics diverged across (shards, threads)");
        FASTNET_ENSURES_MSG(r.violations_json == base.violations_json,
                            "violations diverged across (shards, threads)");
    }
    std::cout << "P1 identity: trace/metrics/violations byte-identical at shards "
                 "{1,2,7} x threads {1,2,hw} (n=96, churned, monitored)\n";
    out.add("p1_identity_configs_checked", 3, "runs");
    out.add("p1_identity_trace_bytes", static_cast<double>(base.trace_json.size()),
            "bytes");
}

// ---------------------------------------------------------------------
// Claim 2: per-hop cost and E1-scale throughput.

double time_parallel(NodeId n, unsigned rounds, unsigned shards, unsigned threads,
                     std::uint64_t& hops_out) {
    const graph::Graph g = load_graph(n);
    const auto factory = topo::make_topology_maintenance(n, load_options(rounds));
    return bench::min_time_ns([&] {
        node::ParallelCluster c(g, factory, parallel_config(shards, threads, 0));
        script_load(c);
        c.run();
        hops_out = c.merged_metrics().net().hops;
    });
}

/// Counts the allocations a protocol's rounds make: on_start runs a
/// node's first round, each round timer the next.
struct RoundAllocs final : node::Protocol {
    std::unique_ptr<node::Protocol> inner;
    std::uint64_t* allocs;
    std::uint64_t* rounds;
    RoundAllocs(std::unique_ptr<node::Protocol> p, std::uint64_t* a, std::uint64_t* r)
        : inner(std::move(p)), allocs(a), rounds(r) {}
    void on_start(node::Context& ctx) override { count([&] { inner->on_start(ctx); }); }
    void on_message(node::Context& ctx, const hw::Delivery& d) override {
        inner->on_message(ctx, d);
    }
    void on_link_state(node::Context& ctx, const node::LocalLink& l, bool up) override {
        inner->on_link_state(ctx, l, up);
    }
    void on_timer(node::Context& ctx, std::uint64_t cookie) override {
        count([&] { inner->on_timer(ctx, cookie); });
    }
    template <typename F>
    void count(F&& round) {
        const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
        round();
        *allocs += g_alloc_count.load(std::memory_order_relaxed) - before;
        *rounds += 1;
    }
};

struct AllocSplit {
    std::uint64_t total = 0;       ///< Everything run() allocated.
    std::uint64_t in_rounds = 0;   ///< Inside round handlers.
    std::uint64_t rounds = 0;
    std::uint64_t deliveries = 0;  ///< NCU deliveries.
};

/// The one-shard run of time_parallel, untimed, with every allocation
/// counted.
AllocSplit count_allocs(NodeId n, unsigned rounds) {
    const graph::Graph g = load_graph(n);
    const auto factory = topo::make_topology_maintenance(n, load_options(rounds));
    AllocSplit a;
    node::ParallelCluster c(
        g,
        [&](NodeId u) {
            return std::make_unique<RoundAllocs>(factory(u), &a.in_rounds, &a.rounds);
        },
        parallel_config(1, 1, 0));
    script_load(c);
    const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    c.run();
    a.total = g_alloc_count.load(std::memory_order_relaxed) - before;
    a.deliveries = c.merged_metrics().net().ncu_deliveries;
    return a;
}

void experiment_perf(bench::JsonReporter& out) {
    constexpr NodeId kNodes = 512;  // E1-scale single run
    constexpr unsigned kRounds = 4;

    // Counted first, on a thread that has built no cluster yet: the NCU
    // queues' first blocks count too (a thread reuses them afterwards).
    const AllocSplit a = count_allocs(kNodes, kRounds);

    std::uint64_t s1_hops = 0, s7_hops = 0;
    const double s1_ns = time_parallel(kNodes, kRounds, 1, 1, s1_hops);
    const unsigned hw = exec::ThreadPool::hardware_threads();
    const double s7_ns = time_parallel(kNodes, kRounds, 7, 0, s7_hops);

    const double s1_per_hop = s1_ns / static_cast<double>(s1_hops);
    const double s7_per_hop = s7_ns / static_cast<double>(s7_hops);
    const double speedup = s1_ns / s7_ns;

    util::Table t({"kernel", "ns_total", "hops", "ns_per_hop", "speedup"});
    t.add("parallel_s1", s1_ns, static_cast<double>(s1_hops), s1_per_hop, 1.0);
    t.add("parallel_s7", s7_ns, static_cast<double>(s7_hops), s7_per_hop, speedup);
    t.print(std::cout,
            "P1: one E1-scale maintenance run (n=512, C=2) — single-shard vs 7-shard "
            "kernel (hw threads = " +
                std::to_string(hw) + ")");

    out.add("p1_par_s1_ns_per_hop", s1_per_hop, "ns");
    out.add("p1_par_s7_ns_per_hop", s7_per_hop, "ns");
    out.add("p1_par_s7_speedup", speedup, "x");
    out.add("p1_par_s1_events_per_sec", 1e9 * static_cast<double>(s1_hops) / s1_ns,
            "events_per_sec");
    out.add("p1_par_s7_events_per_sec", 1e9 * static_cast<double>(s7_hops) / s7_ns,
            "events_per_sec");

    // The message path (kernel and relays) against the rounds.
    const double per_delivery = static_cast<double>(a.total - a.in_rounds) /
                                static_cast<double>(a.deliveries);
    const double per_round = static_cast<double>(a.in_rounds) / static_cast<double>(a.rounds);
    std::cout << "P1 allocations (one shard): " << a.total << " in all, " << per_delivery
              << " per delivery outside rounds (" << a.deliveries << " deliveries), "
              << per_round << " per round (" << a.rounds << " rounds)\n";
    out.add("p1_allocs_per_delivery", per_delivery, "allocs");
    out.add("p1_allocs_per_round", per_round, "allocs");
    out.add("p1_allocs_total", static_cast<double>(a.total), "allocs");
}

// ---------------------------------------------------------------------
// Microbenchmarks.

void bm_parallel_window_loop(benchmark::State& state) {
    const auto shards = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        std::uint64_t hops = 0;
        node::ParallelCluster c(load_graph(64),
                                topo::make_topology_maintenance(64, load_options(3)),
                                parallel_config(shards, 1, 0));
        c.start_all(0);
        c.run();
        hops = c.merged_metrics().net().hops;
        benchmark::DoNotOptimize(hops);
    }
}
BENCHMARK(bm_parallel_window_loop)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    bench::JsonReporter out("parallel_sim");
    experiment_perf(out);
    experiment_identity(out);
    out.write();
    std::cout << "\n";
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
