// Regression guard for the allocation-free message path (see
// docs/PERF.md). A pure relay along a warm path must not touch the
// allocator per hop: packets come from Network's pool with their tracks,
// transmit and completion events fit InlineFn's inline buffer, and a
// delivery moves into the NCU queue with its few reverse labels in
// place. A topology-maintenance round must plan in a bounded number of
// allocations. This binary overrides global operator new to *count* — it
// lives outside fastnet_tests because the gtest framework's own
// allocator traffic would drown the signal.
#include <cstdio>
#include <cstdlib>
#include <new>

#include "fastnet.hpp"

namespace {
std::uint64_t g_allocs = 0;
}

// These counting operators intentionally delegate storage to
// malloc/free; once make_shared below is inlined against them, GCC
// pairs the allocation sites with std::free and mis-reports a mismatch.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
    ++g_allocs;
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t al) {
    ++g_allocs;
    void* p = nullptr;
    if (posix_memalign(&p, static_cast<std::size_t>(al), size ? size : 1) != 0)
        throw std::bad_alloc();
    return p;
}
void* operator new[](std::size_t size, std::align_val_t al) { return ::operator new(size, al); }
// std::stable_sort's temporary buffer comes from the nothrow forms; a
// sanitizer runtime would otherwise serve them and pair them with free().
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    ++g_allocs;
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

struct RelayPing final : fastnet::hw::TypedPayload<RelayPing> {};

/// Forwards one ping up the node-id order (full cluster phases below).
struct RelayProto final : fastnet::node::Protocol {
    void on_start(fastnet::node::Context& ctx) override { forward(ctx); }
    void on_message(fastnet::node::Context& ctx, const fastnet::hw::Delivery&) override {
        forward(ctx);
    }
    static void forward(fastnet::node::Context& ctx) {
        for (const fastnet::node::LocalLink& l : ctx.links()) {
            if (l.neighbor > ctx.self()) {
                fastnet::hw::AnrHeader h{fastnet::hw::AnrLabel::normal(l.port),
                                         fastnet::hw::AnrLabel::normal(fastnet::hw::kNcuPort)};
                ctx.send(std::move(h), std::make_shared<RelayPing>());
                return;
            }
        }
    }
};

/// Build guard: constructing a one-shard cluster of n nodes costs one
/// heap allocation per node — its protocol instance, from the factory —
/// plus a small constant. Runtimes and link tables are bump-allocated in
/// the shard's arena; a heap object per runtime or per link table would
/// triple the count.
int check_cluster_build() {
    using namespace fastnet;
    constexpr NodeId kNodes = 4096;
    const graph::Graph g = graph::make_path(kNodes);
    const node::ProtocolFactory factory = [](NodeId) { return std::make_unique<RelayProto>(); };

    const std::uint64_t before = g_allocs;
    const node::ParallelCluster cluster(g, factory);
    const std::uint64_t build = g_allocs - before;

    // The rest: graph copy, partition, per-node streams, runtime index,
    // the shard's simulator, ledger and mirror network, and a dozen
    // 96 KiB arena chunks (measured 37 in all).
    constexpr std::uint64_t kFixedBudget = 64;
    if (build > kNodes + kFixedBudget) {
        std::fprintf(stderr,
                     "FAIL: %llu allocations building a %u-node cluster (budget %llu: one "
                     "per node plus %llu)\n",
                     static_cast<unsigned long long>(build), kNodes,
                     static_cast<unsigned long long>(kNodes + kFixedBudget),
                     static_cast<unsigned long long>(kFixedBudget));
        return 1;
    }
    std::printf("OK: %llu allocations building a %u-node cluster (%.3f per node)\n",
                static_cast<unsigned long long>(build), kNodes,
                static_cast<double>(build) / kNodes);
    return 0;
}

/// The shard arena's footprint from a fresh memory sample (the sample
/// and the merge allocate; callers read it outside counted windows).
std::pair<std::size_t, std::size_t> arena_bytes(fastnet::node::ParallelCluster& cluster) {
    cluster.sample_memory();
    const fastnet::cost::MemoryBreakdown b = cluster.merged_metrics().memory()->breakdown;
    return {b.arena_reserved, b.arena_used};
}

/// Arena-path guard: a full cluster (arena-resident runtimes, BlockQueue
/// work queues) relaying along a warm path must also hold a steady-state
/// allocation budget, and the shard arena must not grow once warm — bump
/// allocation happens at construction, never on the hop/handler path.
int check_cluster_steady_state() {
    using namespace fastnet;
    constexpr NodeId kNodes = 256;
    node::ParallelCluster cluster(
        graph::make_path(kNodes), [](NodeId) { return std::make_unique<RelayProto>(); });

    // Warm: the first relay wave sizes every queue and slab. Each handler
    // allocates its header vector and its payload (one make_shared), so
    // the budget is per *handler*, not per hop.
    cluster.start(0, 0);
    const Tick warm_done = cluster.run();
    const auto [arena_reserved, arena_used] = arena_bytes(cluster);

    const std::uint64_t before = g_allocs;
    cluster.start(0, warm_done + 1);
    cluster.run();
    const std::uint64_t steady = g_allocs - before;

    // kNodes handlers run, each forwarding one fresh payload: RelayProto's
    // own two allocations (header labels, payload) are the whole budget;
    // the kernel adds none per send, hop, delivery or completion.
    constexpr std::uint64_t kPerHandlerBudget = 2;
    if (steady > kNodes * kPerHandlerBudget) {
        std::fprintf(stderr,
                     "FAIL: %llu allocations across a warm %u-node cluster relay "
                     "(budget %llu)\n",
                     static_cast<unsigned long long>(steady), kNodes,
                     static_cast<unsigned long long>(kNodes * kPerHandlerBudget));
        return 1;
    }
    const auto [reserved_after, used_after] = arena_bytes(cluster);
    if (reserved_after != arena_reserved || used_after != arena_used) {
        std::fprintf(stderr,
                     "FAIL: shard arena grew after warm-up (%zu -> %zu reserved, "
                     "%zu -> %zu used) — something bump-allocates on the hot path\n",
                     arena_reserved, reserved_after, arena_used, used_after);
        return 1;
    }
    std::printf("OK: %llu allocations across a warm %u-node cluster relay "
                "(%.3f per handler), arena stable at %zu bytes\n",
                static_cast<unsigned long long>(steady), kNodes,
                static_cast<double>(steady) / kNodes, arena_used);
    return 0;
}

/// Decorates a protocol to count the allocations its round timer makes.
struct RoundCounter final : fastnet::node::Protocol {
    std::unique_ptr<fastnet::node::Protocol> inner;
    std::uint64_t* allocs;
    std::uint64_t* rounds;
    RoundCounter(std::unique_ptr<fastnet::node::Protocol> p, std::uint64_t* a, std::uint64_t* r)
        : inner(std::move(p)), allocs(a), rounds(r) {}
    void on_start(fastnet::node::Context& ctx) override { inner->on_start(ctx); }
    void on_message(fastnet::node::Context& ctx, const fastnet::hw::Delivery& d) override {
        inner->on_message(ctx, d);
    }
    void on_link_state(fastnet::node::Context& ctx, const fastnet::node::LocalLink& l,
                       bool up) override {
        inner->on_link_state(ctx, l, up);
    }
    void on_timer(fastnet::node::Context& ctx, std::uint64_t cookie) override {
        const std::uint64_t before = g_allocs;
        inner->on_timer(ctx, cookie);
        *allocs += g_allocs - before;
        *rounds += 1;
    }
};

/// Round guard: a topology-maintenance round (snapshot, known_tree, the
/// branching-paths plan, the message and its sends) makes a bounded
/// number of allocations, whatever the plan's size: the tree, the path
/// decomposition and the plan are a handful of flat arrays each, and the
/// plan's routes share one label buffer. Every round after a node's
/// first runs from its timer, so the timer handlers count warm rounds.
int check_maintenance_rounds() {
    using namespace fastnet;
    constexpr NodeId kNodes = 64;
    Rng rng(1988);
    const graph::Graph g = graph::make_random_connected(kNodes, 2, 7, rng);
    topo::TopologyOptions opt;
    opt.period = 64;
    opt.rounds = 4;
    node::ParallelClusterConfig cfg;
    cfg.params.hop_delay = 2;
    cfg.params.ncu_delay = 1;
    std::uint64_t allocs = 0, rounds = 0;
    const node::ProtocolFactory inner = topo::make_topology_maintenance(kNodes, opt);
    node::ParallelCluster cluster(
        g, [&](NodeId u) { return std::make_unique<RoundCounter>(inner(u), &allocs, &rounds); },
        cfg);
    cluster.start_all(0);
    cluster.run();
    if (rounds != kNodes * (opt.rounds - 1)) {
        std::fprintf(stderr, "FAIL: expected %u timer rounds, ran %llu\n",
                     kNodes * (opt.rounds - 1), static_cast<unsigned long long>(rounds));
        return 1;
    }
    constexpr std::uint64_t kPerRoundBudget = 50;
    if (allocs > rounds * kPerRoundBudget) {
        std::fprintf(stderr,
                     "FAIL: %llu allocations across %llu warm maintenance rounds on %u nodes "
                     "(budget %llu per round)\n",
                     static_cast<unsigned long long>(allocs),
                     static_cast<unsigned long long>(rounds), kNodes,
                     static_cast<unsigned long long>(kPerRoundBudget));
        return 1;
    }
    std::printf("OK: %llu allocations across %llu warm maintenance rounds on %u nodes "
                "(%.1f per round)\n",
                static_cast<unsigned long long>(allocs), static_cast<unsigned long long>(rounds),
                kNodes, static_cast<double>(allocs) / static_cast<double>(rounds));
    return 0;
}

/// Call-agent guard: a warm call workload must hold a bounded per-call
/// allocation budget and must not grow the agent's bookkeeping. With
/// retain_terminal off, resolved calls recycle their slab slots and
/// FlatMap64 index entries (backward-shift erase keeps capacity), so a
/// second wave of calls reuses everything the first wave sized: only
/// the per-message payloads remain.
int check_call_agent_steady_state() {
    using namespace fastnet;
    constexpr NodeId kNodes = 16;
    constexpr std::uint64_t kCalls = 8;
    auto g = std::make_shared<graph::Graph>(graph::make_path(kNodes));

    paris::CallAgentOptions base;
    base.link_capacity = 4;
    base.setup_timeout = 32;
    base.max_retries = 2;
    base.retry_backoff = 8;
    base.reservation_ttl = 400;
    base.refresh_interval = 128;
    base.retain_terminal = false;
    for (std::uint64_t i = 0; i < kCalls; ++i)
        base.requests.push_back(
            {static_cast<Tick>(1 + i * 40), kNodes - 1, 1, 60});

    node::ParallelCluster cluster(*g, [&](NodeId u) {
        paris::CallAgentOptions o = base;
        if (u != 0) o.requests.clear();
        return std::make_unique<paris::CallAgentProtocol>(g, std::move(o));
    });

    // Warm: the first wave sizes the slab, index, ledger, route cache
    // and every payload pool along the path.
    cluster.start_all(0);
    const Tick warm_done = cluster.run();
    const auto* agent =
        dynamic_cast<const paris::CallAgentProtocol*>(&cluster.protocol(0));
    if (agent == nullptr || agent->stats().completed != kCalls) {
        std::fprintf(stderr, "FAIL: warm call wave did not complete (%llu/%llu)\n",
                     static_cast<unsigned long long>(agent ? agent->stats().completed : 0),
                     static_cast<unsigned long long>(kCalls));
        return 1;
    }
    const std::size_t warm_bytes = agent->memory_bytes();

    // Steady wave: restarting the source replays the scripted requests
    // shifted to now. Slots freed by the warm wave are recycled, so the
    // only legitimate allocations are the per-leg message payloads.
    const std::uint64_t before = g_allocs;
    cluster.start(0, warm_done + 1);
    cluster.run();
    const std::uint64_t steady = g_allocs - before;

    if (agent->stats().completed != 2 * kCalls) {
        std::fprintf(stderr, "FAIL: steady call wave did not complete (%llu/%llu)\n",
                     static_cast<unsigned long long>(agent->stats().completed),
                     static_cast<unsigned long long>(2 * kCalls));
        return 1;
    }
    // Each call delivers ~60 message legs on this path (selective-copy
    // setup drops a copy at every one of the 15 hops, then accept,
    // teardown and refresh add theirs), and every delivered leg costs
    // the same handful of allocations as any message handler (payload
    // control block, header labels, and the reverse labels of a delivery
    // more than four hops out). Measured ~170 per call warm; 512 keeps
    // slack without tolerating per-call bookkeeping growth on top of the
    // per-leg cost.
    constexpr std::uint64_t kPerCallBudget = 512;
    if (steady > kCalls * kPerCallBudget) {
        std::fprintf(stderr,
                     "FAIL: %llu allocations across %llu warm calls (budget %llu) "
                     "— the call path is allocating per hop again\n",
                     static_cast<unsigned long long>(steady),
                     static_cast<unsigned long long>(kCalls),
                     static_cast<unsigned long long>(kCalls * kPerCallBudget));
        return 1;
    }
    if (agent->memory_bytes() > warm_bytes) {
        std::fprintf(stderr,
                     "FAIL: call agent bookkeeping grew after warm-up (%zu -> %zu "
                     "bytes) — slots or index entries are not being recycled\n",
                     warm_bytes, agent->memory_bytes());
        return 1;
    }
    std::printf("OK: %llu allocations across %llu warm calls (%.1f per call), "
                "agent bookkeeping stable at %zu bytes\n",
                static_cast<unsigned long long>(steady),
                static_cast<unsigned long long>(kCalls),
                static_cast<double>(steady) / kCalls, warm_bytes);
    return 0;
}

/// Spill guard: once a spilling trace has drained its first full ring,
/// a drain allocates nothing. The writer sorts in the key arrays it
/// kept from the first drain and encodes through its one fixed block.
int check_spill_drains() {
    using namespace fastnet;
    constexpr std::size_t kRing = 4096;
    constexpr unsigned kDrains = 8;
    sim::Trace trace(kRing, std::size_t{1} << 16);
    sim::TraceSpillConfig spill;
    spill.path = "fastnet_alloc_test.fnspill";
    std::string error;
    if (!trace.enable_spill(spill, &error)) {
        std::fprintf(stderr, "FAIL: %s\n", error.c_str());
        return 1;
    }
    // A run's shape: hops over a few nodes at rising ticks, now and then
    // a network-scope record and a detail.
    std::uint64_t seq = 0;
    const auto record_ring = [&] {
        for (std::size_t i = 0; i < kRing; ++i, ++seq) {
            const auto at = static_cast<Tick>(seq / 3);
            if (seq % 97 == 0) {
                trace.record_detail(at, kNoNode, sim::TraceKind::kViolation, "over budget",
                                    {seq, 1, 0, 0, 0});
            } else {
                trace.record(at, static_cast<NodeId>(seq % 61), sim::TraceKind::kHop,
                             {seq, seq % 5, 1, static_cast<std::uint64_t>(at), 0});
            }
        }
    };
    record_ring();
    record_ring();  // the first drain sizes the writer's keys

    const std::uint64_t before = g_allocs;
    for (unsigned d = 0; d < kDrains; ++d) record_ring();
    const std::uint64_t steady = g_allocs - before;

    const std::uint64_t segments = trace.spill_segments();
    const bool finished = trace.finish_spill();
    std::remove(spill.path.c_str());
    if (!finished || segments != 1 + kDrains || trace.dropped() != 0) {
        std::fprintf(stderr, "FAIL: spill wrote %llu segments (want %u), finish %s\n",
                     static_cast<unsigned long long>(segments), 1 + kDrains,
                     finished ? "ok" : "failed");
        return 1;
    }
    if (steady != 0) {
        std::fprintf(stderr,
                     "FAIL: %llu allocations across %u warm spill drains of %zu records "
                     "(budget 0)\n",
                     static_cast<unsigned long long>(steady), kDrains, kRing);
        return 1;
    }
    std::printf("OK: 0 allocations across %u warm spill drains of %zu records each\n",
                kDrains, kRing);
    return 0;
}

}  // namespace

int main() {
    using namespace fastnet;

    constexpr NodeId kNodes = 512;
    const graph::Graph g = graph::make_path(kNodes);
    sim::Simulator sim;
    cost::Metrics metrics(0);
    // A disabled trace must be free on the fast path: the guard runs with
    // one attached so any record() sneaking past the enabled() gate (or
    // allocating despite being filtered) trips the budget below. Same for
    // an attached-but-empty monitor hub: no registered monitors means no
    // events get built, so it must contribute zero allocations too.
    sim::Trace trace(std::size_t{1} << 12);
    trace.disable_all();
    obs::MonitorHub monitors;
    hw::Fabric fabric(g, ModelParams::traditional(), {}, graph::partition_bfs(g, 1), 1);
    hw::Network net(sim, fabric, 0, metrics, &trace, &monitors);
    std::uint64_t delivered = 0;
    net.set_ncu_dispatch([&](NodeId, const hw::Delivery&) { ++delivered; });

    std::vector<NodeId> path(kNodes);
    for (NodeId u = 0; u < kNodes; ++u) path[u] = u;
    const hw::AnrHeader header = net.route(path);

    // Warm every pool: packet slab, event slabs, staging capacities.
    constexpr int kWarmSends = 4;
    for (int i = 0; i < kWarmSends; ++i) {
        net.send(0, header, nullptr);
        sim.run();
    }

    const std::uint64_t before = g_allocs;
    constexpr std::uint64_t kSends = 8;
    for (std::uint64_t i = 0; i < kSends; ++i) {
        net.send(0, header, nullptr);
        sim.run();
    }
    const std::uint64_t steady = g_allocs - before;

    if (delivered != kWarmSends + kSends) {
        std::fprintf(stderr, "FAIL: expected %llu deliveries, got %llu\n",
                     static_cast<unsigned long long>(kWarmSends + kSends),
                     static_cast<unsigned long long>(delivered));
        return 1;
    }

    // Per warm send, O(1) allocations are legitimate (this delivery's
    // 511 reverse labels do not fit in place) — but the 511 relay hops in
    // between must contribute nothing. A budget of 8 per send keeps the
    // bound far below even one-allocation-per-hundred-hops.
    constexpr std::uint64_t kPerSendBudget = 8;
    if (steady > kSends * kPerSendBudget) {
        std::fprintf(stderr,
                     "FAIL: %llu allocations across %llu warm sends of %u hops "
                     "(budget %llu) — the hop fast path is allocating again\n",
                     static_cast<unsigned long long>(steady),
                     static_cast<unsigned long long>(kSends), kNodes - 1,
                     static_cast<unsigned long long>(kSends * kPerSendBudget));
        return 1;
    }

    std::printf("OK: %llu allocations across %llu warm sends of %u hops each "
                "(%.4f per hop)\n",
                static_cast<unsigned long long>(steady),
                static_cast<unsigned long long>(kSends), kNodes - 1,
                static_cast<double>(steady) /
                    static_cast<double>(kSends * (kNodes - 1)));
    if (const int rc = check_cluster_build()) return rc;
    if (const int rc = check_cluster_steady_state()) return rc;
    if (const int rc = check_maintenance_rounds()) return rc;
    if (const int rc = check_call_agent_steady_state()) return rc;
    return check_spill_drains();
}
