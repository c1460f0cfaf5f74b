// perfbench: runs one workload at one seed for a fixed time, verifies
// every job and prints its metrics. The last line of standard output is
// one JSON object:
//   {"correct": ..., "attempted": jobs, "failed": jobs that failed
//    verification, "metrics": {name: {"value": v, "unit": u}, ...}}
// With --trace 0 the metrics are the end-to-end ones, summed up over the
// jobs of the run; with --trace 1 they are the per-layer ones of one
// traced job, and the spans go to <out>/<workload>.trace.json (Chrome
// trace-event format) beside a flat table <out>/<workload>.layers.tsv.
//
// Usage: perfbench --workload W --seed N --seconds S --trace 0|1
//                  [--out DIR] [--toy]
#include <sched.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Metric {
    std::string name;
    std::string unit;
};

// Summaries over the untraced jobs of a run. A job is a closed run: build,
// run, analyse, verify.
const std::vector<Metric> kEndToEnd = {
    {"setup_s", "s"}, {"run_s", "s"}, {"analysis_s", "s"}, {"peak_rss_mib", "MiB"}};

std::vector<Metric> per_layer_metrics() {
    std::vector<Metric> out = {
        {"graph.build_s", "s"},           {"graph.bytes", "bytes"},
        {"node.build_s", "s"},            {"hw.bytes", "bytes"},
        {"node.kernel_s", "s"},           {"node.kernel_ns_per_hop", "ns"},
        {"node.invocations", "count"},    {"node.timer_fires", "count"},
        {"hw.hops", "count"},             {"hw.deliveries", "count"},
        {"hw.drops", "count"},            {"hw.dups", "count"},
        {"hw.header_bits", "bits"},       {"node.cpu_util", "ratio"},
        {"node.work_inflation", "ratio"}, {"node.windows", "count"},
        {"node.shard_imbalance", "ratio"}, {"node.handoffs", "count"},
    };
    for (const char* m : {"topo", "election", "paris"}) {
        const std::string p = m;
        out.push_back({p + ".handler_s", "s"});
        out.push_back({p + ".share", "ratio"});
        for (const char* k : {".on_message", ".on_timer"}) {
            out.push_back({p + k + ".calls", "count"});
            out.push_back({p + k + ".p50_ns", "ns"});
            out.push_back({p + k + ".p99_ns", "ns"});
        }
        out.push_back({p + ".bytes", "bytes"});
    }
    const std::vector<Metric> obs = {
        {"obs.records", "count"},     {"obs.spill_bytes", "bytes"},
        {"obs.dropped", "count"},     {"obs.record_s", "s"},
        {"obs.record_ns", "ns"},      {"obs.critical_path_s", "s"},
        {"obs.lineage_index_s", "s"}, {"obs.summary_s", "s"},
        {"obs.export_s", "s"},        {"obs.critical_path_peak_bytes", "bytes"},
        {"bench.trace_overhead", "ratio"},
    };
    out.insert(out.end(), obs.begin(), obs.end());
    return out;
}

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t k = v.size() / 2;
    return v.size() % 2 ? v[k] : 0.5 * (v[k - 1] + v[k]);
}

std::string json_number(double v) {
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
}

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    std::string out = ".";
    bool toy = false;
};

bool parse(int argc, char** argv, Args& a) {
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--toy") {
            a.toy = true;
            continue;
        }
        if (i + 1 >= argc) return false;
        const std::string v = argv[++i];
        if (k == "--workload") a.workload = v;
        else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace") a.trace = v == "1" ? 1 : v == "0" ? 0 : -1;
        else if (k == "--out") a.out = v;
        else return false;
    }
    return known_workload(a.workload) && a.seconds > 0 && a.trace >= 0;
}

/// Jobs run, jobs that failed verification, and the reasons.
struct Tally {
    std::uint64_t jobs = 0;
    std::uint64_t failed = 0;
    std::uint64_t checks = 0;

    void add(const JobResult& r, const char* label) {
        ++jobs;
        checks += r.checks;
        if (!r.failures.empty()) ++failed;
        for (const std::string& f : r.failures) std::cerr << "FAILED (" << label << "): " << f << "\n";
    }
};

void print_result(const Tally& t, bool correct,
                  const std::vector<std::pair<Metric, double>>& metrics) {
    std::cerr << "ops " << t.jobs << ", ops_failed " << t.failed << ", checks " << t.checks
              << "\n";
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << t.jobs << ", \"failed\": " << t.failed
              << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::cout << (i ? ", " : "") << "\"" << metrics[i].first.name
                  << "\": {\"value\": " << json_number(metrics[i].second) << ", \"unit\": \""
                  << metrics[i].first.unit << "\"}";
    std::cout << "}}" << std::endl;
}

/// Inputs of job `j` of a run: a stream of the run's seed, so the run
/// covers many inputs of the workload's shape and the metrics are not
/// those of one graph or one arrival sequence.
JobOptions nth_job(const JobOptions& base, std::size_t j) {
    JobOptions o = base;
    o.seed = Rng::stream(base.seed, j).next();
    return o;
}

/// Moves the process from CPU to CPU of the set it started on, one CPU
/// per job, and gives the set back when it goes out of scope. On a
/// shared host each vCPU has neighbours of its own that slow it for
/// seconds to minutes; a run that sat on one vCPU would measure that
/// vCPU's neighbours, one that visits every vCPU averages them.
class CpuRotation {
public:
    CpuRotation() {
        CPU_ZERO(&start_);
        if (sched_getaffinity(0, sizeof(start_), &start_) != 0) return;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &start_)) cpus_.push_back(c);
    }
    ~CpuRotation() {
        if (cpus_.size() > 1) sched_setaffinity(0, sizeof(start_), &start_);
    }
    CpuRotation(const CpuRotation&) = delete;
    CpuRotation& operator=(const CpuRotation&) = delete;

    /// Pins to the k-th CPU of the set (round robin). Best effort: a
    /// refused pin leaves the job where the scheduler put it.
    void pin(std::size_t k) const {
        if (cpus_.size() < 2) return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[k % cpus_.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);
    }

private:
    cpu_set_t start_{};
    std::vector<int> cpus_;
};

/// Untraced jobs until `budget_s` is spent (and at least `min_jobs`).
/// With `vary_inputs`, job j runs nth_job(base, j); otherwise every job
/// runs `base`. Jobs of a one-thread workload go round the CPUs.
std::vector<JobResult> run_untraced(const Args& a, const JobOptions& base, double budget_s,
                                    std::size_t min_jobs, bool vary_inputs, Tally& tally) {
    std::vector<JobResult> jobs;
    const CpuRotation cpus;
    const auto t0 = Clock::now();
    double longest = 0;
    for (;;) {
        // A pool created on a pinned thread would inherit the pin.
        if (single_threaded(a.workload)) cpus.pin(jobs.size());
        const auto j0 = Clock::now();
        jobs.push_back(run_job(a.workload, vary_inputs ? nth_job(base, jobs.size()) : base));
        const double wall = seconds_between(j0, Clock::now());
        longest = std::max(longest, wall);
        const JobResult& r = jobs.back();
        tally.add(r, "job");
        std::cerr << a.workload << " job " << jobs.size() << ": setup " << r.setup_s
                  << " s, run " << r.run_s << " s, analysis " << r.analysis_s << " s, "
                  << r.checks << " checks, " << r.failures.size() << " failed\n";
        const double elapsed = seconds_between(t0, Clock::now());
        if (jobs.size() >= min_jobs && elapsed + longest > budget_s) break;
    }
    return jobs;
}

/// One phase's times over the jobs of a run, leaving out the first job
/// when others follow: it pays the process's first page faults, whose
/// memory the later jobs reuse.
std::vector<double> after_warmup(const std::vector<JobResult>& jobs, double JobResult::*field) {
    const std::size_t first = jobs.size() > 1 ? 1 : 0;
    std::vector<double> v;
    for (std::size_t i = first; i < jobs.size(); ++i) v.push_back(jobs[i].*field);
    return v;
}

double mean(const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

int run_end_to_end(const Args& a, const JobOptions& base) {
    Tally tally;
    const auto jobs = run_untraced(a, base, a.seconds, 3, true, tally);
    // run_s and analysis_s are means, not medians: the host's speed
    // wanders over tens of seconds, so a run's job times often fall into
    // a fast and a slow cluster, and the median jumps between them where
    // the mean moves with the share of each (README.md, "Noise").
    print_result(tally, tally.failed == 0,
                 {{kEndToEnd[0], median(after_warmup(jobs, &JobResult::setup_s))},
                  {kEndToEnd[1], mean(after_warmup(jobs, &JobResult::run_s))},
                  {kEndToEnd[2], mean(after_warmup(jobs, &JobResult::analysis_s))},
                  {kEndToEnd[3], peak_rss_mib()}});
    return 0;
}

int run_traced(const Args& a, const JobOptions& run) {
    // Every job here runs the same inputs, so the traced job compares
    // with the untraced ones like for like.
    const JobOptions base = nth_job(run, 0);
    Tally tally;
    const auto jobs = run_untraced(a, base, a.seconds / 2, 1, false, tally);
    const double untraced_run_s = mean(after_warmup(jobs, &JobResult::run_s));

    JobTrace trace(a.seed);
    JobOptions topt = base;
    topt.trace = &trace;
    const JobResult traced = run_job(a.workload, topt);
    tally.add(traced, "traced job");
    bool correct = tally.failed == 0;
    if (traced.metrics_json != jobs.front().metrics_json) {
        std::cerr << "FAILED: merged metrics differ with the decorating protocol\n";
        correct = false;
    }
    auto& v = trace.values;
    v["bench.trace_overhead"] = traced.run_s / untraced_run_s - 1;

    // Work inflation prices the sharded storm's CPU against the same
    // storm on one shard (both untraced); elsewhere the job is its own
    // reference.
    v["node.work_inflation"] = 1;
    if (a.workload == "storm_sharded") {
        JobOptions one = base;
        one.shards = 1;
        one.threads = 1;
        const JobResult r = run_job(a.workload, one);
        tally.add(r, "one-shard reference");
        v["node.work_inflation"] = mean(after_warmup(jobs, &JobResult::run_cpu_s)) / r.run_cpu_s;
    }
    // Recording cost: the same job with the program trace off.
    if (a.workload == "traced_calls") {
        JobOptions off = base;
        off.program_trace = false;
        const JobResult r = run_job(a.workload, off);
        tally.add(r, "untraced-program reference");
        v["obs.record_s"] = untraced_run_s - r.run_s;
        v["obs.record_ns"] = v["obs.record_s"] * 1e9 / v["obs.records"];
    }
    correct = correct && tally.failed == 0;

    add_window_spans(trace.spans, trace.profile);
    const auto names = workload_names();
    const int pid = static_cast<int>(
        std::find(names.begin(), names.end(), a.workload) - names.begin());
    std::filesystem::create_directories(a.out);
    {
        std::ofstream os(a.out + "/" + a.workload + ".trace.json");
        write_chrome_trace(os, trace.spans, pid, a.workload, traced.shards);
    }
    std::vector<std::pair<Metric, double>> metrics;
    std::ofstream table(a.out + "/" + a.workload + ".layers.tsv");
    table << "workload\tmetric\tvalue\tunit\n";
    for (const Metric& m : per_layer_metrics()) {
        const auto it = v.find(m.name);
        const double value = it == v.end() ? 0.0 : it->second;
        metrics.push_back({m, value});
        table << a.workload << "\t" << m.name << "\t" << json_number(value) << "\t" << m.unit
              << "\n";
    }
    const double handler_s = traced.run_s - v["node.kernel_s"];
    std::cerr << a.workload << ": bench.trace_overhead " << v["bench.trace_overhead"]
              << " (traced run " << traced.run_s << " s vs untraced " << untraced_run_s
              << " s); run span " << traced.run_s << " s = handlers " << handler_s
              << " s + node.kernel_s " << v["node.kernel_s"] << " s\n";
    print_result(tally, correct, metrics);
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    Args a;
    if (!parse(argc, argv, a)) {
        std::cerr << "usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
                     "[--out DIR] [--toy]\nworkloads:";
        for (const std::string& w : workload_names()) std::cerr << " " << w;
        std::cerr << "\n";
        return 2;
    }
    JobOptions base;
    base.seed = a.seed;
    base.toy = a.toy;
    base.scratch = a.out;
    return a.trace ? run_traced(a, base) : run_end_to_end(a, base);
}
