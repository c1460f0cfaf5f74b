// Self-tests of the benchmark's own instruments (run.py --selftest runs
// this, then every workload at toy size through the benchmark command).
//
//   1. The decorating protocol is invisible to the library: merged
//      metrics JSON is byte-identical with and without it on a 64-node
//      storm at 1 and 4 shards.
//   2. The counting monitor's handoff count does not depend on the
//      thread count (4 shards at 1, 2 and 4 threads).
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const std::string& what) {
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    if (!ok) ++failures;
}

JobOptions toy_storm(unsigned shards, unsigned threads, JobTrace* trace) {
    JobOptions o;
    o.seed = 7;
    o.toy = true;
    o.shards = shards;
    o.threads = threads;
    o.trace = trace;
    return o;
}

}  // namespace

int main() {
    for (unsigned shards : {1u, 4u}) {
        const JobResult plain = run_job("maint_storm", toy_storm(shards, shards, nullptr));
        JobTrace trace(0);
        const JobResult wrapped = run_job("maint_storm", toy_storm(shards, shards, &trace));
        const std::string at = " at " + std::to_string(shards) + " shard(s)";
        expect(plain.failures.empty() && wrapped.failures.empty(), "toy storm verifies" + at);
        expect(!plain.metrics_json.empty() && plain.metrics_json == wrapped.metrics_json,
               "merged metrics JSON identical with the decorating protocol" + at);
        expect(trace.values.at("node.invocations") > 0, "decorating protocol saw handlers" + at);
    }

    double reference = -1;
    for (unsigned threads : {1u, 2u, 4u}) {
        JobTrace trace(0);
        const JobResult r = run_job("maint_storm", toy_storm(4, threads, &trace));
        const double handoffs = trace.values.at("node.handoffs");
        if (reference < 0) reference = handoffs;
        expect(r.shards == 4 && handoffs > 0 && handoffs == reference,
               "handoffs at 4 shards x " + std::to_string(threads) +
                   " thread(s): " + std::to_string(static_cast<long long>(handoffs)));
    }
    std::cout << (failures ? "selftest FAILED\n" : "selftest passed\n");
    return failures ? 1 : 0;
}
