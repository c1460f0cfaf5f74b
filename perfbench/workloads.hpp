// The benchmark's workloads. Each one is a closed job: generate inputs
// from the seed, build a node::ParallelCluster, script it, run it to
// quiescence, analyse the result and verify it. Only the public API of
// ParallelCluster and the library's generators, protocols and queries
// are used.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "layers.hpp"

namespace perfbench {

/// Every workload perfbench runs. BENCHMARK.json lists maint_storm,
/// election_cgk and traced_calls; README.md says why the others are
/// run by hand.
const std::vector<std::string>& workload_names();
bool known_workload(const std::string& name);
/// False for the workload whose cluster runs a pool of worker threads.
bool single_threaded(const std::string& name);

/// Benchmark tracing state of one traced job (null in untraced jobs).
struct JobTrace {
    explicit JobTrace(std::uint64_t run) : spans(run) {}

    Spans spans;
    HandlerProfile profile;
    std::vector<const CountingMonitor*> monitors;  ///< One per shard hub.
    /// Per-layer values the job measured, by metric name.
    std::map<std::string, double> values;
};

struct JobOptions {
    std::uint64_t seed = 1;
    /// Self-test sizes: the same shapes, small enough for milliseconds.
    bool toy = false;
    /// Overrides of the workload's shard and thread counts (0 = its own).
    unsigned shards = 0;
    unsigned threads = 0;
    /// traced_calls only: record and spill the program's trace (the
    /// workload's obs load). Off prices the recording.
    bool program_trace = true;
    /// Directory the job may write spill files under.
    std::string scratch = ".";
    JobTrace* trace = nullptr;
};

struct JobResult {
    double setup_s = 0;     ///< Graph generation + construction + control script.
    double run_s = 0;       ///< run() to quiescence.
    /// Reading the results out of the finished run, then releasing it.
    double analysis_s = 0;
    double run_cpu_s = 0;   ///< Process CPU seconds spent inside run().
    unsigned threads = 1;
    unsigned shards = 1;
    std::uint64_t checks = 0;
    std::vector<std::string> failures;  ///< Failed checks; empty = verified.
    /// Merged metrics JSON: identical with and without benchmark tracing.
    std::string metrics_json;
};

JobResult run_job(const std::string& workload, const JobOptions& options);

}  // namespace perfbench
