// Machine-readable benchmark output.
//
// Every perf-tracking bench in this repo emits a BENCH_<name>.json file
// next to the binary so that successive PRs can diff hard numbers instead
// of eyeballing stdout tables (see docs/PERF.md, "Reading BENCH_*.json").
// The format is deliberately flat: one object with a `bench` name and a
// `results` array of {name, value, unit} entries, values always plain
// numbers (ns, events/s, bytes — never pre-formatted strings).
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace fastnet::bench {

class JsonReporter {
public:
    explicit JsonReporter(std::string bench_name) : bench_name_(std::move(bench_name)) {}

    /// Records one measurement. `unit` is free-form but stable across PRs
    /// ("ns", "events_per_sec", "ms", "allocs", ...).
    void add(const std::string& name, double value, const std::string& unit) {
        results_.push_back(Result{name, value, unit});
        std::cout << "  " << name << " = " << value << " " << unit << "\n";
    }

    /// Writes BENCH_<bench>.json into the current directory (the build
    /// tree when run via ctest/cmake; .gitignore'd either way). Names and
    /// units pass through JSON escaping — a quote or backslash in a bench
    /// label must not corrupt the file (fastnet_report --history parses it).
    void write() const {
        const std::string path = "BENCH_" + bench_name_ + ".json";
        std::ofstream out(path);
        out << "{\n  \"bench\": " << obs::json_quote(bench_name_) << ",\n  \"results\": [\n";
        for (std::size_t i = 0; i < results_.size(); ++i) {
            const Result& r = results_[i];
            out << "    {\"name\": " << obs::json_quote(r.name) << ", \"value\": " << r.value
                << ", \"unit\": " << obs::json_quote(r.unit) << "}"
                << (i + 1 < results_.size() ? "," : "") << "\n";
        }
        out << "  ]\n}\n";
        std::cout << "wrote " << path << "\n";
    }

private:
    struct Result {
        std::string name;
        double value;
        std::string unit;
    };
    std::string bench_name_;
    std::vector<Result> results_;
};

/// Runs `body` repeatedly until at least `min_total` has elapsed (and at
/// least 3 repetitions), returning the *minimum* single-repetition wall
/// time in nanoseconds — the most noise-robust point estimate on a busy
/// machine.
template <typename F>
double min_time_ns(F&& body, std::chrono::nanoseconds min_total = std::chrono::milliseconds(300)) {
    using Clock = std::chrono::steady_clock;
    double best = 1e300;
    Clock::duration total{0};
    int reps = 0;
    while (reps < 3 || total < min_total) {
        const auto t0 = Clock::now();
        body();
        const auto dt = Clock::now() - t0;
        total += dt;
        best = std::min(
            best,
            static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()));
        ++reps;
    }
    return best;
}

}  // namespace fastnet::bench
