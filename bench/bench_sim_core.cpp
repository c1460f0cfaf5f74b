// Simulation-core fast-path microbenchmarks + perf regression baseline.
//
// Everything the repo measures — the Section 3 broadcast benches, the
// Section 4 election tours, the E1/E2 sweeps — funnels through two hot
// paths: sim::EventQueue and hw::Network's per-hop packet processing.
// This bench pins their cost with machine-readable output
// (BENCH_sim_core.json, see docs/PERF.md) so any future PR that regresses
// the core shows up as a hard number, not a feeling:
//
//   event_schedule_run   — schedule N events with a transmit-sized (32 B)
//                          capture at shuffled times, drain the queue.
//   event_cancel         — schedule N, cancel every other one, drain.
//   hop_ns               — steady-state cost of one hardware hop on a
//                          long pure-relay route (no NCU involvement).
//   hop_allocs           — heap allocations per steady-state hop
//                          (global operator new counter; target: 0).
//   broadcast_e2e_<n>    — wall time of one full branching-paths
//                          broadcast (plan + simulate) at n nodes.
#include <atomic>
#include <cstdlib>
#include <new>

#include "fastnet.hpp"
#include "json_reporter.hpp"

// ---- global allocation counter -----------------------------------------
// Replacing global operator new in the bench binary lets us count, not
// guess, the allocator traffic of the hop loop.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}

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

// The capture size of Network's hot transmit event (this + ids + packet
// state); using the same size here keeps the microbench honest about what
// the callback type must hold inline.
struct TransmitSizedCapture {
    std::uint64_t* sink;
    std::uint64_t a, b;
    std::uint32_t c, d;
};

void bench_event_schedule_run(bench::JsonReporter& out) {
    constexpr std::uint64_t kEvents = 100'000;
    // Shuffled times exercise real heap churn rather than an append-only
    // pattern; the schedule is identical every repetition (fixed seed).
    std::vector<Tick> times(kEvents);
    Rng rng(42);
    for (auto& t : times) t = static_cast<Tick>(rng.below(1 << 20));

    std::uint64_t side_effect = 0;
    const double ns = bench::min_time_ns([&] {
        sim::Simulator s;
        for (std::uint64_t i = 0; i < kEvents; ++i) {
            TransmitSizedCapture cap{&side_effect, i, i ^ 0x9e37u,
                                     static_cast<std::uint32_t>(i), 7};
            s.at(times[i], [cap] { *cap.sink += cap.a + cap.c; });
        }
        s.run();
    });
    out.add("event_schedule_run_ns_per_event", ns / static_cast<double>(kEvents), "ns");
    out.add("event_schedule_run_throughput",
            1e9 * static_cast<double>(kEvents) / ns, "events_per_sec");
    if (side_effect == 0xdead) std::abort();  // defeat optimizing the loop away
}

void bench_event_cancel(bench::JsonReporter& out) {
    constexpr std::uint64_t kEvents = 20'000;
    std::uint64_t side_effect = 0;
    const double ns = bench::min_time_ns([&] {
        sim::Simulator s;
        std::vector<sim::EventId> ids;
        ids.reserve(kEvents);
        for (std::uint64_t i = 0; i < kEvents; ++i)
            ids.push_back(s.at(static_cast<Tick>(i % 997), [&side_effect] { ++side_effect; }));
        for (std::uint64_t i = 0; i < kEvents; i += 2) s.cancel(ids[i]);
        s.run();
    });
    out.add("event_cancel_ns_per_event", ns / static_cast<double>(kEvents), "ns");
    out.add("event_cancel_throughput", 1e9 * static_cast<double>(kEvents) / ns,
            "events_per_sec");
}

void bench_hop_cost(bench::JsonReporter& out) {
    // A pure relay along a path: every hop is hardware-only work (switch
    // match + forward), the NCU is touched only at the far end. This is
    // the steady state the paper says must be cheap.
    constexpr NodeId kNodes = 4096;
    const graph::Graph g = graph::make_path(kNodes);
    sim::Simulator sim;
    cost::Metrics metrics(g.node_count());
    hw::Fabric fabric(g, ModelParams::traditional(), {}, graph::partition_bfs(g, 1), 1);
    hw::Network net(sim, fabric, 0, metrics, nullptr, nullptr);
    std::uint64_t delivered = 0;
    net.set_ncu_dispatch([&](NodeId, const hw::Delivery&) { ++delivered; });

    std::vector<NodeId> path(kNodes);
    for (NodeId u = 0; u < kNodes; ++u) path[u] = u;
    const hw::AnrHeader header = net.route(path);

    // Warm every pool/cache, then count allocations over a fixed number
    // of steady-state hops.
    net.send(0, header, nullptr);
    sim.run();
    const std::uint64_t allocs_before = g_alloc_count.load();
    net.send(0, header, nullptr);
    sim.run();
    const std::uint64_t allocs_one_send = g_alloc_count.load() - allocs_before;

    const double ns = bench::min_time_ns([&] {
        net.send(0, header, nullptr);
        sim.run();
    });
    const double hops = static_cast<double>(kNodes - 1);
    out.add("hop_ns", ns / hops, "ns");
    out.add("hop_throughput", 1e9 * hops / ns, "hops_per_sec");
    // Allocations attributable to the per-hop steady state: total for one
    // warm send divided across its hops (send-time route construction and
    // final-delivery materialization amortize to ~0 on a long route only
    // if the per-hop cost itself is 0).
    out.add("allocs_per_hop", static_cast<double>(allocs_one_send) / hops, "allocs");
    if (delivered == 0) std::abort();
}

void bench_broadcast(bench::JsonReporter& out, NodeId n) {
    Rng rng(3);
    const graph::Graph g = graph::make_random_connected(n, 1, 2 * n, rng);
    const double ns = bench::min_time_ns(
        [&] {
            const auto res = topo::run_broadcast(g, topo::BroadcastScheme::kBranchingPaths, 0);
            FASTNET_ENSURES(res.all_received);
        },
        std::chrono::milliseconds(500));
    out.add("broadcast_e2e_" + std::to_string(n) + "_ms", ns / 1e6, "ms");
}

}  // namespace

int main() {
    bench::JsonReporter out("sim_core");
    std::cout << "== sim core fast-path bench ==\n";
    bench_event_schedule_run(out);
    bench_event_cancel(out);
    bench_hop_cost(out);
    for (NodeId n : {1024u, 4096u, 16384u}) bench_broadcast(out, n);
    out.write();
    return 0;
}
