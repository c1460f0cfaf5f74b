// Observability overhead gate (BENCH_obs_overhead.json).
//
// The tentpole promise of the tracing rework: with tracing *disabled*
// the steady-state hop path costs the same as having no trace at all —
// one pointer test, no allocation, no formatting. This bench measures
// the per-hop cost of a long pure-relay route in four configurations:
//
//   hop_ns_no_trace        — no trace attached (PR 1's baseline shape).
//   hop_ns_trace_disabled  — trace attached, every kind disabled. The
//                            acceptance gate: within 5% of no_trace
//                            (see trace_disabled_overhead_pct).
//   hop_ns_trace_enabled   — trace attached, all kinds recording.
//   hop_ns_sampling        — no trace, windowed metrics sampling on.
//   hop_ns_monitors_empty  — empty obs::MonitorHub attached (no
//                            monitors registered): same ±5% / zero-alloc
//                            gate as the disabled trace.
//   hop_ns_monitors_std    — standard invariant monitors registered.
//
// Plus allocs_per_hop_trace_disabled via the global operator-new counter
// (target: 0 — the same invariant Alloc.SteadyStateHopPath enforces).
//
// This PR adds the always-on handler profiler (cost::Profiler) to the
// gate: a two-node ping-pong cluster prices one handler invocation with
// the profiler recording versus the identical cluster with registration
// off (the hook still runs, it just hits the kNoProtocol no-op). Gated
// in-binary: overhead <= 5% and zero steady-state allocations per
// invocation — FASTNET_ENSURES aborts the bench otherwise.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "fastnet.hpp"
#include "json_reporter.hpp"

// ---- global allocation counter (same trick as bench_sim_core) ----------

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

struct HopMeasurement {
    double ns_per_hop = 0;
    double allocs_per_hop = 0;
};

/// Steady-state per-hop cost of a 4095-hop pure relay (identical to
/// bench_sim_core's hop_ns rig) under the given observability config.
HopMeasurement measure_hops(std::shared_ptr<sim::Trace> trace, Tick sample_window,
                            std::shared_ptr<obs::MonitorHub> monitors = nullptr) {
    constexpr NodeId kNodes = 4096;
    const graph::Graph g = graph::make_path(kNodes);
    sim::Simulator sim;
    cost::Metrics metrics(g.node_count());
    if (sample_window > 0) metrics.enable_sampling(sample_window);
    hw::NetworkConfig cfg;
    cfg.trace = std::move(trace);
    cfg.monitors = std::move(monitors);
    hw::Network net(sim, g, ModelParams::traditional(), metrics, cfg);
    std::uint64_t delivered = 0;
    net.set_ncu_dispatch([&](NodeId, const hw::Delivery&) { ++delivered; });

    std::vector<NodeId> path(kNodes);
    for (NodeId u = 0; u < kNodes; ++u) path[u] = u;
    const hw::AnrHeader header = net.route(path);

    // Warm pools/caches, then count allocations over one warm send.
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
    if (delivered == 0) std::abort();
    const double hops = static_cast<double>(kNodes - 1);
    return {ns / hops, static_cast<double>(allocs_one_send) / hops};
}

// ---- profiler invocation rig -------------------------------------------

constexpr int kVolley = 2048;

/// Two nodes exchanging a packet kVolley times: every message is one
/// hop plus one delivery-handler invocation, so the per-invocation cost
/// isolates the NCU system-call path the profiler hooks.
struct PingPong final : public node::Protocol {
    const char* name() const override { return "pingpong"; }

    void on_start(node::Context& ctx) override {
        remaining_ = kVolley;
        const auto links = ctx.links();
        ctx.send({hw::AnrLabel::normal(links[0].port),
                  hw::AnrLabel::normal(hw::kNcuPort)},
                 nullptr);
    }
    void on_message(node::Context& ctx, const hw::Delivery& d) override {
        if (ctx.self() == 0 && --remaining_ <= 0) return;
        ctx.reply(d, nullptr);
    }
    std::size_t memory_bytes() const override { return sizeof(*this); }

private:
    int remaining_ = 0;
};

struct ProfilerMeasurement {
    double ns_on = 0, ns_off = 0;          ///< Per invocation, min over rounds.
    double allocs_on = 0, allocs_off = 0;  ///< Per invocation, one warm volley.
    std::uint64_t profiled_invocations = 0;
};

/// Prices the profiler hook on ONE cluster, toggling it between
/// alternating timing rounds: two separately constructed clusters
/// differ by more machine noise (allocator layout, cache aliasing) than
/// the few-ns hook, so only a same-cluster A/B isolates the delta.
ProfilerMeasurement measure_profiler() {
    node::ParallelCluster c(graph::make_path(2),
                            [](NodeId) { return std::make_unique<PingPong>(); });
    auto volley = [&] {
        c.start(0, c.now() + 1);
        c.run();
    };
    volley();  // warm pools/caches
    ProfilerMeasurement m;
    const double invocations = 2.0 * kVolley;
    auto count_allocs = [&] {
        const std::uint64_t before = g_alloc_count.load();
        volley();
        return static_cast<double>(g_alloc_count.load() - before) / invocations;
    };
    m.allocs_on = count_allocs();
    c.set_profile(false);
    m.allocs_off = count_allocs();
    double on = 0, off = 0;
    for (int round = 0; round < 4; ++round) {
        c.set_profile(true);
        const double t_on = bench::min_time_ns(volley) / invocations;
        c.set_profile(false);
        const double t_off = bench::min_time_ns(volley) / invocations;
        on = round == 0 ? t_on : std::min(on, t_on);
        off = round == 0 ? t_off : std::min(off, t_off);
    }
    m.ns_on = on;
    m.ns_off = off;
    const cost::Metrics merged = c.merged_metrics();
    for (const auto& e : merged.profiler().entries())
        m.profiled_invocations += e.invocations();
    return m;
}

}  // namespace

int main() {
    bench::JsonReporter out("obs_overhead");
    std::cout << "== observability overhead bench ==\n";

    const HopMeasurement none = measure_hops(nullptr, 0);

    auto disabled_trace = std::make_shared<sim::Trace>(std::size_t{1} << 16);
    disabled_trace->disable_all();
    const HopMeasurement disabled = measure_hops(disabled_trace, 0);

    const HopMeasurement enabled =
        measure_hops(std::make_shared<sim::Trace>(std::size_t{1} << 16), 0);

    const HopMeasurement sampled = measure_hops(nullptr, 64);

    // Attached-but-empty monitor hub: the gate configuration of this PR.
    const HopMeasurement empty_hub = measure_hops(nullptr, 0, std::make_shared<obs::MonitorHub>());

    // Standard invariant monitors registered (the honest price of live
    // checking; informational, not gated).
    auto std_hub = std::make_shared<obs::MonitorHub>();
    obs::add_standard_monitors(*std_hub);
    const HopMeasurement std_monitors = measure_hops(nullptr, 0, std_hub);
    if (!std_hub->ok()) std::abort();  // the relay rig must not violate invariants

    out.add("hop_ns_no_trace", none.ns_per_hop, "ns");
    out.add("hop_ns_trace_disabled", disabled.ns_per_hop, "ns");
    out.add("hop_ns_trace_enabled", enabled.ns_per_hop, "ns");
    out.add("hop_ns_sampling", sampled.ns_per_hop, "ns");
    out.add("trace_disabled_overhead_pct",
            100.0 * (disabled.ns_per_hop - none.ns_per_hop) / none.ns_per_hop, "pct");
    out.add("trace_enabled_overhead_pct",
            100.0 * (enabled.ns_per_hop - none.ns_per_hop) / none.ns_per_hop, "pct");
    out.add("sampling_overhead_pct",
            100.0 * (sampled.ns_per_hop - none.ns_per_hop) / none.ns_per_hop, "pct");
    out.add("hop_ns_monitors_empty", empty_hub.ns_per_hop, "ns");
    out.add("hop_ns_monitors_std", std_monitors.ns_per_hop, "ns");
    out.add("monitors_empty_overhead_pct",
            100.0 * (empty_hub.ns_per_hop - none.ns_per_hop) / none.ns_per_hop, "pct");
    out.add("monitors_std_overhead_pct",
            100.0 * (std_monitors.ns_per_hop - none.ns_per_hop) / none.ns_per_hop, "pct");
    out.add("allocs_per_hop_no_trace", none.allocs_per_hop, "allocs");
    out.add("allocs_per_hop_trace_disabled", disabled.allocs_per_hop, "allocs");
    out.add("allocs_per_hop_monitors_empty", empty_hub.allocs_per_hop, "allocs");

    // Always-on handler profiler: same-cluster A/B of the hook.
    const ProfilerMeasurement prof = measure_profiler();
    const double profiler_pct = 100.0 * (prof.ns_on - prof.ns_off) / prof.ns_off;
    out.add("invocation_ns_profiler_off", prof.ns_off, "ns");
    out.add("invocation_ns_profiler_on", prof.ns_on, "ns");
    out.add("profiler_overhead_pct", profiler_pct, "pct");
    // The rig's reply path allocates (fresh reverse-route headers); the
    // profiler itself must add nothing on top of that baseline.
    out.add("profiler_allocs_per_invocation", prof.allocs_on - prof.allocs_off, "allocs");
    out.add("profiler_invocations", static_cast<double>(prof.profiled_invocations),
            "invocations");
    FASTNET_ENSURES_MSG(prof.profiled_invocations > 0,
                        "profiler recorded no invocations");
    FASTNET_ENSURES_MSG(profiler_pct <= 5.0, "profiler overhead above the 5% gate");
    FASTNET_ENSURES_MSG(prof.allocs_on == prof.allocs_off,
                        "profiler must not allocate in steady state");
    out.write();
    return 0;
}
