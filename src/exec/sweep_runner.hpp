// Deterministic multi-core sweep execution.
//
// The repo's experiments are grids of *independent* simulations:
// (topology, ParallelClusterConfig, Scenario, seed) points whose per-run
// cost is small, leaving across-run throughput as the bottleneck. This
// layer fans such grids out over exec::ThreadPool while keeping results
// bit-identical to the serial order:
//
//   * results land in a pre-sized vector slot per task — collection order
//     is submission order, never completion order;
//   * each task's RNG stream is Rng::stream(master_seed, task_index) — a
//     pure function of the task's position in the grid, so neither the
//     worker that ran it nor the interleaving can change what it draws;
//   * tasks share nothing mutable: every task builds its own
//     ParallelCluster (simulator, network, metrics, runtimes) from
//     value-copied inputs.
//
// The contract is enforced by tests/test_exec.cpp (the same sweep at 1, 2
// and hardware_concurrency threads must serialize to byte-identical JSON)
// and by the SweepSmoke ctest (scripts/sweep_smoke.sh).
#pragma once

#include <exception>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "exec/thread_pool.hpp"
#include "node/parallel_cluster.hpp"
#include "node/scenario.hpp"

namespace fastnet::exec {

struct SweepOptions {
    /// Worker threads; 0 means ThreadPool::hardware_threads(). 1 runs the
    /// plain serial loop (no pool) — the baseline the parallel path must
    /// reproduce byte-for-byte.
    unsigned threads = 0;
    /// Master seed; per-task streams are forked by task index.
    std::uint64_t master_seed = 42;
};

/// Handed to each task: its submission index and its private RNG stream.
struct TaskContext {
    std::size_t index = 0;
    Rng rng;
};

/// Maps `fn(item, ctx)` over `items` on `opt.threads` workers; returns
/// results in item order regardless of scheduling. The result type must be
/// default-constructible. The first task exception (in item order, not
/// completion order) is rethrown after the whole batch drains.
template <typename T, typename F>
auto sweep_map(const std::vector<T>& items, F fn, const SweepOptions& opt = {})
    -> std::vector<std::decay_t<std::invoke_result_t<F&, const T&, TaskContext&>>> {
    using R = std::decay_t<std::invoke_result_t<F&, const T&, TaskContext&>>;
    std::vector<R> results(items.size());
    std::vector<std::exception_ptr> errors(items.size());
    auto run_one = [&](std::size_t i) {
        TaskContext ctx{i, Rng::stream(opt.master_seed, i)};
        try {
            results[i] = fn(items[i], ctx);
        } catch (...) {
            errors[i] = std::current_exception();
        }
    };
    const unsigned threads = opt.threads == 0 ? ThreadPool::hardware_threads() : opt.threads;
    if (threads <= 1 || items.size() <= 1) {
        for (std::size_t i = 0; i < items.size(); ++i) run_one(i);
    } else {
        ThreadPool pool(threads);
        for (std::size_t i = 0; i < items.size(); ++i)
            pool.submit([&run_one, i] { run_one(i); });
        pool.wait_idle();
    }
    for (auto& e : errors)
        if (e) std::rethrow_exception(e);
    return results;
}

/// One task's outcome: the headline cost-measure counters plus free-form
/// named values extracted by the case's probe. Everything that lands in
/// the JSON serialization is integer-or-exactly-computed, so equal runs
/// serialize to equal bytes.
struct CaseResult {
    std::string name;
    std::size_t index = 0;
    Tick completion = 0;
    std::uint64_t system_calls = 0;
    std::uint64_t direct_messages = 0;
    std::uint64_t hops = 0;
    bool ok = true;  ///< Probe verdict (e.g. "converged", "unique leader").
    std::vector<std::pair<std::string, double>> values;

    void set(std::string key, double v) { values.emplace_back(std::move(key), v); }
};

/// One grid point: everything a worker needs to build, perturb and run a
/// ParallelCluster, all owned by value (tasks must share nothing
/// mutable). Each case's cluster records into its *own* trace
/// (config.trace_capacity) and feeds its *own* monitor hubs
/// (config.monitor_setup), so exported traces and verdicts stay
/// byte-identical at any thread count. Monitor violations fold into the
/// result row: `monitor_violations` joins the values and a violating run
/// clears `ok`.
struct ClusterCase {
    std::string name;
    graph::Graph graph;
    node::ProtocolFactory protocol;
    node::ParallelClusterConfig config;
    node::Scenario scenario;     ///< Scheduled before running (may be empty).
    bool start_all = true;       ///< start_all(start_at) before running.
    Tick start_at = 0;
    /// When true (default) the cluster seed is drawn from the task's RNG
    /// stream — sweep results then depend only on (master_seed, index).
    /// Set false to pin config.seed for a specific case.
    bool derive_seed = true;
    /// Runs on the worker after the cluster quiesces, with its merged
    /// metrics; extracts whatever the experiment measures into the
    /// result row.
    std::function<void(node::ParallelCluster&, const cost::Metrics&, CaseResult&)> probe;
};

/// Fans ClusterCases out across workers; results in submission order.
class SweepRunner {
public:
    explicit SweepRunner(SweepOptions opt = {}) : opt_(opt) {}

    /// Adds one case; returns its task index.
    std::size_t add(ClusterCase c);

    /// Runs every case; deterministic in content and order.
    std::vector<CaseResult> run();

    const SweepOptions& options() const { return opt_; }
    std::size_t size() const { return cases_.size(); }

private:
    SweepOptions opt_;
    std::vector<ClusterCase> cases_;
};

}  // namespace fastnet::exec
