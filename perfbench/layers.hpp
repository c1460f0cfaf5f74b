// Outside-in layer tracing for the benchmark.
//
// Everything here wraps calls into the library's public API; nothing in
// src/ reads a host clock. Three instruments feed the per-layer table:
//
//   * Spans: coarse host-time intervals (name, start, end, parent, run)
//     around the generator, the cluster constructor, the control script,
//     run(), merged_metrics() and each trace query. Kept in memory and
//     written at exit as Chrome trace-event JSON.
//   * ProfiledProtocol: a decorating node::Protocol installed through the
//     factory. It forwards every virtual function (name() and
//     memory_bytes() included, so the library's profiler and memory
//     ledger see the wrapped protocol) and times each handler call into
//     per-shard accumulators. A shard runs on one thread between
//     barriers, so the accumulators need no atomics.
//   * CountingMonitor: an obs::Monitor that counts kHandoff events, one
//     instance per shard hub.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "fastnet.hpp"

namespace perfbench {

using namespace fastnet;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// User + system CPU seconds of this process so far.
double process_cpu_seconds();

/// Peak resident set of this process in MiB.
double peak_rss_mib();

// ---- spans ---------------------------------------------------------------

struct Span {
    std::string name;
    double start_s = 0;  ///< Seconds since the Spans epoch.
    double end_s = 0;
    int parent = -1;     ///< Index into Spans::all(), -1 for a root.
    std::uint64_t run = 0;  ///< The traced job's run id (its seed).
    int track = 0;       ///< 0 = coordinator, 1 + s = shard s.
    std::string args;    ///< Extra JSON members ("" = none).
};

class Spans {
public:
    explicit Spans(std::uint64_t run) : epoch_(Clock::now()), run_(run) {}

    /// Opens a span under the innermost open one; returns its index.
    int open(std::string name);
    void close(int id);
    /// Records a finished span on a shard track (no parent).
    void add(Span s) { spans_.push_back(std::move(s)); }

    double since_epoch(Clock::time_point t) const { return seconds_between(epoch_, t); }
    std::uint64_t run() const { return run_; }
    const std::vector<Span>& all() const { return spans_; }

private:
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
    std::uint64_t run_;
};

/// Times `f`; records a span named `name` when `spans` is non-null.
template <typename F>
double timed(Spans* spans, const char* name, F&& f) {
    const int id = spans ? spans->open(name) : -1;
    const auto t0 = Clock::now();
    f();
    const double s = seconds_between(t0, Clock::now());
    if (spans) spans->close(id);
    return s;
}

// ---- handler profile -----------------------------------------------------

/// Protocol modules the benchmark attributes handler time to.
enum class Module : unsigned { kTopo, kElection, kParis };
constexpr unsigned kModuleCount = 3;
const char* module_name(Module m);

/// Handler kinds, in Protocol's virtual-function order.
enum class Handler : unsigned { kStart, kRestart, kMessage, kLinkState, kTimer };
constexpr unsigned kHandlerCount = 5;

/// Log-scale latency histogram: four buckets per power of two.
class NsHistogram {
public:
    void add(std::uint64_t ns);
    void merge_from(const NsHistogram& o);
    /// Geometric middle of the bucket holding quantile q (0 when empty).
    double quantile(double q) const;

private:
    static constexpr unsigned kBuckets = 4 * 64;
    std::array<std::uint64_t, kBuckets> buckets_{};
    std::uint64_t count_ = 0;
};

struct HandlerStats {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    NsHistogram hist;

    void merge_from(const HandlerStats& o) {
        calls += o.calls;
        total_ns += o.total_ns;
        hist.merge_from(o.hist);
    }
};

/// Handler activity of one shard inside one lookahead window.
struct WindowStats {
    std::uint64_t handler_ns = 0;
    std::uint64_t calls = 0;
    Clock::time_point first{};
    Clock::time_point last{};
};

/// One shard's accumulators. Touched only by the thread running the
/// shard, or by the coordinator after run() returns.
struct ShardLedger {
    std::array<std::array<HandlerStats, kHandlerCount>, kModuleCount> by{};
    std::vector<WindowStats> windows;  ///< Indexed by now / lookahead.
};

class HandlerProfile {
public:
    /// Binds the partition once the cluster exists (the factory runs
    /// inside the constructor, before the partition is readable).
    void bind(const node::ParallelCluster& cluster);

    void record(NodeId self, Tick now, Module m, Handler h, Clock::time_point t0,
                Clock::time_point t1);

    const std::vector<ShardLedger>& shards() const { return shards_; }
    HandlerStats total(Module m, Handler h) const;
    /// Handler nanoseconds of module m summed over kinds and shards.
    std::uint64_t module_ns(Module m) const;
    std::uint64_t total_ns() const;
    std::uint64_t calls(Handler h) const;

    struct WindowTotals {
        /// Sum over windows of the busiest shard's handler time.
        std::uint64_t busiest_ns = 0;
        /// What the handlers add to the run span when windows end in
        /// barriers: per window, the busiest shard's handler time or the
        /// window's total spread over the worker threads, whichever is
        /// more. On one shard this is all handler time.
        std::uint64_t critical_ns = 0;
        std::size_t active = 0;  ///< Windows with handler work.
    };
    WindowTotals window_totals() const;

private:
    std::vector<std::uint32_t> shard_of_;
    Tick lookahead_ = kNever;
    unsigned threads_ = 1;
    std::vector<ShardLedger> shards_;
};

/// Wraps a factory so every instance is a ProfiledProtocol feeding `profile`.
node::ProtocolFactory profiled_factory(node::ProtocolFactory inner, Module module,
                                       HandlerProfile* profile);

/// The protocol inside a ProfiledProtocol (or `p` itself when unwrapped),
/// for post-run oracles that downcast to the concrete type.
const node::Protocol& unwrap(const node::Protocol& p);

template <typename T>
const T& protocol_as(const node::ParallelCluster& c, NodeId u) {
    const auto* p = dynamic_cast<const T*>(&unwrap(c.protocol(u)));
    FASTNET_ENSURES_MSG(p != nullptr, "protocol type mismatch");
    return *p;
}

// ---- handoff counter -----------------------------------------------------

class CountingMonitor final : public obs::Monitor {
public:
    const char* name() const override { return "perfbench_handoffs"; }
    void on_event(obs::MonitorHub&, const obs::MonitorEvent& ev) override {
        if (ev.kind == obs::MonitorEvent::Kind::kHandoff) ++handoffs_;
    }
    std::uint64_t handoffs() const { return handoffs_; }

private:
    std::uint64_t handoffs_ = 0;
};

// ---- output --------------------------------------------------------------

/// Appends the per-shard window activity of `profile` as shard-track spans.
void add_window_spans(Spans& spans, const HandlerProfile& profile);

/// Chrome trace-event JSON: one process (`pid`, named `process`), one
/// track per Span::track.
void write_chrome_trace(std::ostream& os, const Spans& spans, int pid,
                        const std::string& process, unsigned shard_count);

}  // namespace perfbench
