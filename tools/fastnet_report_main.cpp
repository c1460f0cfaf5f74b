// fastnet_report: turn archived bench runs + audit/monitor exports into
// one markdown report.
//
// Ingests the bench history tree maintained by scripts/bench_history.sh
// (bench/history/INDEX lists git shas oldest-first; each
// bench/history/<sha>/ holds the BENCH_*.json and AUDIT_*.json files of
// that revision) plus any explicitly named sweep/monitor exports, and
// emits:
//
//   * per-bench metric trajectories across snapshots, with the relative
//     delta of the newest snapshot against its predecessor — direction
//     aware (see higher_is_better): throughput and carried-work units
//     regress downwards, everything else regresses upwards;
//   * theorem-bound audit tables (obs::BoundAudit exports, re-verified
//     on load — the verdict column is recomputed, not trusted);
//   * live invariant monitor violations (obs::violations_json exports);
//   * sweep summaries (exec::sweep_json files, e.g. the chaos harness
//     output), surfacing failed cases and monitor-violation counts.
//
//   fastnet_report --history bench/history
//   fastnet_report --history bench/history --fail-on-regression 5
//   fastnet_report --audit AUDIT_broadcast.json --monitors t.monitors.json
//   fastnet_report --history bench/history --sweep chaos_smoke.json --out R.md
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "exec/result.hpp"
#include "obs/audit.hpp"
#include "obs/json.hpp"

using namespace fastnet;

namespace {

int usage(const char* argv0) {
    std::cerr << "usage: " << argv0
              << " [--history DIR] [--audit FILE]... [--monitors FILE]...\n"
                 "       [--sweep FILE]... [--metrics FILE]... [--out FILE]\n"
                 "       [--fail-on-regression PCT]\n"
                 "  --history DIR          bench history tree (DIR/INDEX + DIR/<sha>/)\n"
                 "  --audit FILE           extra bound-audit export (AUDIT_*.json)\n"
                 "  --monitors FILE        monitor-violation export (*.monitors.json)\n"
                 "  --sweep FILE           sweep result export (exec::sweep_json)\n"
                 "  --metrics FILE         metrics JSON export; renders its\n"
                 "                         \"critical_path\" section as a slowest-paths table\n"
                 "  --out FILE             write the markdown report here (default stdout)\n"
                 "  --fail-on-regression PCT  exit 1 when the newest snapshot regresses\n"
                 "                         any metric more than PCT percent\n";
    return 2;
}

bool read_file(const std::string& path, std::string& out) {
    std::ifstream f(path, std::ios::binary);
    if (!f) return false;
    std::ostringstream ss;
    ss << f.rdbuf();
    out = ss.str();
    return static_cast<bool>(f);
}

/// One BENCH_*.json, flattened to name -> (value, unit).
struct BenchRun {
    std::string bench;
    std::vector<std::string> order;  ///< Metric names as written.
    std::map<std::string, std::pair<double, std::string>> metrics;
};

bool load_bench(const std::string& path, BenchRun& out, std::string& error) {
    std::string text;
    if (!read_file(path, text)) {
        error = "cannot read " + path;
        return false;
    }
    obs::JsonValue doc;
    if (!obs::json_parse(text, doc, &error)) {
        error = path + ": " + error;
        return false;
    }
    const obs::JsonValue* bench = doc.find("bench");
    const obs::JsonValue* results = doc.find("results");
    if (!bench || !bench->is_string() || !results || !results->is_array()) {
        error = path + ": not a BENCH_*.json export";
        return false;
    }
    out.bench = bench->string;
    for (const obs::JsonValue& entry : results->array) {
        const obs::JsonValue* name = entry.find("name");
        const obs::JsonValue* value = entry.find("value");
        const obs::JsonValue* unit = entry.find("unit");
        if (!name || !name->is_string() || !value || !value->is_number()) {
            error = path + ": malformed results entry";
            return false;
        }
        if (!out.metrics.count(name->string)) out.order.push_back(name->string);
        out.metrics[name->string] = {value->as_double(),
                                     unit && unit->is_string() ? unit->string : ""};
    }
    return true;
}

/// The direction rule behind `fastnet_report --history`'s deltas and
/// --fail-on-regression: throughput and carried-work units ("per_sec",
/// "calls" — e.g. the call benches' carried load — and the profiler's
/// "invocations") regress downwards; cost units (ns, ms, allocs, pct,
/// ticks, retries, and the critical-path bench's "path_ticks"/"segments"
/// latency attribution) regress upwards.
bool higher_is_better(const std::string& unit) {
    return unit.find("per_sec") != std::string::npos || unit == "calls" ||
           unit == "invocations";
}

struct Snapshot {
    std::string sha;
    std::map<std::string, BenchRun> benches;  ///< Keyed by bench name.
};

/// A metric regression between the two newest snapshots.
struct Regression {
    std::string bench, metric, unit;
    double delta_pct = 0;
};

std::string fmt(double v) { return exec::format_double(v); }

/// Delta with its direction resolved per unit, so a bytes/node or ns
/// drop and a throughput rise both read "better": "-3.10% (better)",
/// "+4.00% (worse)".
std::string fmt_delta(double old_v, double new_v, const std::string& unit) {
    if (old_v == 0) return new_v == 0 ? "n/a" : "inf";
    const double pct = 100.0 * (new_v - old_v) / std::abs(old_v);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%+.2f%%", pct);
    std::string out = buf;
    if (pct != 0)
        out += (higher_is_better(unit) ? pct > 0 : pct < 0) ? " (better)" : " (worse)";
    return out;
}

void report_trajectories(std::string& md, const std::vector<Snapshot>& history,
                         double fail_pct, bool fail_set,
                         std::vector<Regression>& regressions) {
    md += "## Bench trajectories\n\n";
    if (history.size() < 2)
        md += "_One snapshot only — deltas need at least two._\n\n";

    // Bench names in first-appearance order across the history.
    std::vector<std::string> bench_names;
    for (const Snapshot& s : history)
        for (const auto& [name, run] : s.benches)
            if (std::find(bench_names.begin(), bench_names.end(), name) == bench_names.end())
                bench_names.push_back(name);

    for (const std::string& bench : bench_names) {
        md += "### ";
        md += bench;
        md += "\n\n";
        md += "| metric |";
        for (const Snapshot& s : history) {
            md += " ";
            md += s.sha;
            md += " |";
        }
        md += " delta | unit |\n";
        md += "|---|";
        for (std::size_t i = 0; i < history.size(); ++i) md += "---:|";
        md += "---:|---|\n";

        // Metric order from the newest snapshot that has this bench.
        const BenchRun* newest = nullptr;
        for (auto it = history.rbegin(); it != history.rend() && !newest; ++it)
            if (auto b = it->benches.find(bench); b != it->benches.end()) newest = &b->second;
        std::vector<std::string> metric_names = newest->order;
        for (const Snapshot& s : history)
            if (auto b = s.benches.find(bench); b != s.benches.end())
                for (const std::string& m : b->second.order)
                    if (std::find(metric_names.begin(), metric_names.end(), m) ==
                        metric_names.end())
                        metric_names.push_back(m);

        for (const std::string& metric : metric_names) {
            md += "| ";
            md += metric;
            md += " |";
            std::string unit;
            const std::pair<double, std::string>* prev = nullptr;
            const std::pair<double, std::string>* last = nullptr;
            for (const Snapshot& s : history) {
                const auto b = s.benches.find(bench);
                if (b == s.benches.end() || !b->second.metrics.count(metric)) {
                    md += " - |";
                    continue;
                }
                const auto& entry = b->second.metrics.at(metric);
                md += " ";
                md += fmt(entry.first);
                md += " |";
                unit = entry.second;
                prev = last;
                last = &entry;
            }
            if (prev && last) {
                md += " ";
                md += fmt_delta(prev->first, last->first, unit);
                md += " |";
                if (fail_set && prev->first != 0) {
                    const double pct =
                        100.0 * (last->first - prev->first) / std::abs(prev->first);
                    const double regressed = higher_is_better(unit) ? -pct : pct;
                    if (regressed > fail_pct)
                        regressions.push_back({bench, metric, unit, pct});
                }
            } else {
                md += " n/a |";
            }
            md += " ";
            md += unit;
            md += " |\n";
        }
        md += "\n";
    }
}

void report_audit(std::string& md, const std::string& path, const obs::BoundAudit& audit) {
    md += "### " + audit.name() + " (`" + path + "`)\n\n";
    md += audit.pass() ? "All bounds hold.\n\n"
                       : "**" + std::to_string(audit.violation_count()) +
                             " bound violation(s).**\n\n";
    md += "| check | kind | bound | observed | slack | verdict |\n";
    md += "|---|---|---:|---:|---:|---|\n";
    for (const obs::BoundCheck& c : audit.checks()) {
        md += "| " + c.name + " | " + obs::bound_check_kind_name(c.kind) + " | " +
              fmt(c.bound) + " | " + fmt(c.observed) + " | " + fmt(c.slack) + " | " +
              (c.pass ? "pass" : "**VIOLATION**") + " |\n";
    }
    md += "\n";
}

bool report_monitors(std::string& md, const std::string& path, const std::string& text,
                     std::string& error) {
    obs::JsonValue doc;
    if (!obs::json_parse(text, doc, &error)) return false;
    const obs::JsonValue* magic = doc.find("fastnet_monitors");
    if (!magic || !magic->is_uint() || magic->uint_value != 1) {
        error = "not an obs::violations_json export";
        return false;
    }
    const obs::JsonValue* name = doc.find("name");
    const obs::JsonValue* count = doc.find("violation_count");
    const obs::JsonValue* violations = doc.find("violations");
    md += "### " + (name && name->is_string() ? name->string : path) + " (`" + path +
          "`)\n\n";
    const std::uint64_t total = count && count->is_uint() ? count->uint_value : 0;
    if (total == 0) {
        md += "No invariant violations.\n\n";
        return true;
    }
    md += "**" + std::to_string(total) + " violation(s).**\n\n";
    md += "| monitor | at | node | lineage | message |\n|---|---:|---:|---:|---|\n";
    if (violations && violations->is_array())
        for (const obs::JsonValue& v : violations->array) {
            const obs::JsonValue* m = v.find("monitor");
            const obs::JsonValue* at = v.find("at");
            const obs::JsonValue* node = v.find("node");
            const obs::JsonValue* lineage = v.find("lineage");
            const obs::JsonValue* msg = v.find("message");
            md += "| " + (m && m->is_string() ? m->string : "?") + " | " +
                  (at && at->is_number() ? fmt(at->as_double()) : "-") + " | " +
                  (node && node->is_number() ? fmt(node->as_double()) : "-") + " | " +
                  (lineage && lineage->is_number() ? fmt(lineage->as_double()) : "-") +
                  " | " + (msg && msg->is_string() ? msg->string : "") + " |\n";
        }
    md += "\n";
    return true;
}

bool report_sweep(std::string& md, const std::string& path, const std::string& text,
                  std::string& error) {
    obs::JsonValue doc;
    if (!obs::json_parse(text, doc, &error)) return false;
    const obs::JsonValue* sweep = doc.find("sweep");
    const obs::JsonValue* tasks = doc.find("tasks");
    if (!sweep || !sweep->is_string() || !tasks || !tasks->is_array()) {
        error = "not an exec::sweep_json export";
        return false;
    }
    std::size_t failed = 0;
    double monitor_violations = 0;
    for (const obs::JsonValue& t : tasks->array) {
        const obs::JsonValue* ok = t.find("ok");
        if (ok && ok->type == obs::JsonValue::Type::kBool && !ok->boolean) ++failed;
        if (const obs::JsonValue* mv = t.find("monitor_violations"); mv && mv->is_number())
            monitor_violations += mv->as_double();
    }
    md += "### " + sweep->string + " (`" + path + "`)\n\n";
    md += std::to_string(tasks->array.size()) + " cases, " + std::to_string(failed) +
          " failed, " + fmt(monitor_violations) + " monitor violation(s).\n\n";
    if (failed != 0) {
        md += "| failed case |\n|---|\n";
        for (const obs::JsonValue& t : tasks->array) {
            const obs::JsonValue* ok = t.find("ok");
            const obs::JsonValue* name = t.find("name");
            if (ok && ok->type == obs::JsonValue::Type::kBool && !ok->boolean)
                md += "| " + (name && name->is_string() ? name->string : "?") + " |\n";
        }
        md += "\n";
    }
    return true;
}

/// Renders a metrics export's "critical_path" section: the witness chain
/// plus the top-N slowest roots as one table, latency-descending — the
/// human-readable face of obs::critical_path. Latency columns are
/// lower-is-better (the bench trajectories above apply that direction to
/// the path_ticks unit).
bool report_critical_path(std::string& md, const std::string& path,
                          const std::string& text, std::string& error) {
    obs::JsonValue doc;
    if (!obs::json_parse(text, doc, &error)) return false;
    if (doc.find("fastnet_metrics") == nullptr) {
        error = "not a metrics JSON export";
        return false;
    }
    const obs::JsonValue* name = doc.find("name");
    md += "### " + (name && name->is_string() ? name->string : path) + " (`" + path +
          "`)\n\n";
    const obs::JsonValue* cp = doc.find("critical_path");
    if (cp == nullptr || !cp->is_object()) {
        md += "_No critical_path section (trace not priced)._\n\n";
        return true;
    }
    const auto count = [cp](const char* key) -> std::uint64_t {
        const obs::JsonValue* v = cp->find(key);
        return v != nullptr && v->is_uint() ? v->uint_value : 0;
    };
    md += "| path | latency | depth | terminal | queueing | transit | handler "
          "| timer_wait | retry_backoff |\n";
    md += "|---|---:|---:|---|---:|---:|---:|---:|---:|\n";
    const auto row = [&md](const std::string& label, const obs::JsonValue& p) {
        const auto field = [&p](const char* key) -> std::string {
            const obs::JsonValue* v = p.find(key);
            return v != nullptr && v->is_number() ? fmt(v->as_double()) : "-";
        };
        const obs::JsonValue* terminal = p.find("terminal");
        const obs::JsonValue* node = p.find("terminal_node");
        md += "| " + label + " | " + field("latency") + " | " + field("depth") + " | " +
              (terminal != nullptr && terminal->is_uint()
                   ? std::to_string(terminal->uint_value)
                   : "-") +
              "@" + (node != nullptr && node->is_uint() ? std::to_string(node->uint_value)
                                                        : "-") +
              " | " + field("queueing") + " | " + field("transit") + " | " +
              field("handler") + " | " + field("timer_wait") + " | " +
              field("retry_backoff") + " |\n";
    };
    if (const obs::JsonValue* w = cp->find("witness"); w != nullptr && w->is_object())
        row("witness", *w);
    if (const obs::JsonValue* top = cp->find("top"); top != nullptr && top->is_array()) {
        std::size_t i = 0;
        for (const obs::JsonValue& p : top->array)
            if (p.is_object()) row(std::to_string(++i), p);
    }
    md += "\n" + std::to_string(count("deliveries")) + " deliveries priced; " +
          std::to_string(count("unanchored")) + " unanchored, " +
          std::to_string(count("clamped")) + " clamped, " + std::to_string(count("pruned")) +
          " pruned.\n\n";
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    std::string history_dir, out_path;
    std::vector<std::string> audit_paths, monitor_paths, sweep_paths, metrics_paths;
    double fail_pct = 0;
    bool fail_set = false;

    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (std::strcmp(arg, "--history") == 0 && has_value) {
            history_dir = argv[++i];
        } else if (std::strcmp(arg, "--audit") == 0 && has_value) {
            audit_paths.push_back(argv[++i]);
        } else if (std::strcmp(arg, "--monitors") == 0 && has_value) {
            monitor_paths.push_back(argv[++i]);
        } else if (std::strcmp(arg, "--sweep") == 0 && has_value) {
            sweep_paths.push_back(argv[++i]);
        } else if (std::strcmp(arg, "--metrics") == 0 && has_value) {
            metrics_paths.push_back(argv[++i]);
        } else if (std::strcmp(arg, "--out") == 0 && has_value) {
            out_path = argv[++i];
        } else if (std::strcmp(arg, "--fail-on-regression") == 0 && has_value) {
            fail_pct = std::strtod(argv[++i], nullptr);
            fail_set = true;
        } else {
            return usage(argv[0]);
        }
    }
    if (history_dir.empty() && audit_paths.empty() && monitor_paths.empty() &&
        sweep_paths.empty() && metrics_paths.empty())
        return usage(argv[0]);

    // --- load history -----------------------------------------------------
    std::vector<Snapshot> history;
    if (!history_dir.empty()) {
        std::ifstream index(history_dir + "/INDEX");
        if (!index) {
            std::cerr << "cannot read " << history_dir << "/INDEX\n";
            return 2;
        }
        std::string sha;
        while (std::getline(index, sha)) {
            if (sha.empty() || sha[0] == '#') continue;
            Snapshot snap;
            snap.sha = sha;
            const std::filesystem::path dir =
                std::filesystem::path(history_dir) / sha;
            std::error_code ec;
            std::vector<std::string> files;
            for (const auto& entry : std::filesystem::directory_iterator(dir, ec))
                files.push_back(entry.path().string());
            if (ec) {
                std::cerr << "warning: skipping " << dir.string() << ": "
                          << ec.message() << "\n";
                continue;
            }
            std::sort(files.begin(), files.end());
            for (const std::string& file : files) {
                const std::string base = std::filesystem::path(file).filename().string();
                if (base.rfind("BENCH_", 0) != 0 || file.size() < 5 ||
                    file.compare(file.size() - 5, 5, ".json") != 0)
                    continue;
                BenchRun run;
                std::string error;
                if (!load_bench(file, run, error)) {
                    std::cerr << "warning: " << error << "\n";
                    continue;
                }
                snap.benches[run.bench] = std::move(run);
            }
            history.push_back(std::move(snap));
        }
        // The newest snapshot's audits ride along automatically.
        if (!history.empty()) {
            const std::filesystem::path dir =
                std::filesystem::path(history_dir) / history.back().sha;
            std::error_code ec;
            std::vector<std::string> files;
            for (const auto& entry : std::filesystem::directory_iterator(dir, ec))
                files.push_back(entry.path().string());
            std::sort(files.begin(), files.end());
            for (const std::string& file : files) {
                const std::string base = std::filesystem::path(file).filename().string();
                if (base.rfind("AUDIT_", 0) == 0) audit_paths.push_back(file);
            }
        }
    }

    // --- build the report -------------------------------------------------
    std::string md = "# fastnet bench report\n\n";
    std::vector<Regression> regressions;

    if (!history.empty()) {
        md += std::to_string(history.size()) + " snapshot(s)";
        if (history.size() > 1)
            md += " (" + history.front().sha + " .. " + history.back().sha + ")";
        md += ".\n\n";
        report_trajectories(md, history, fail_pct, fail_set, regressions);
    }

    if (!audit_paths.empty()) {
        md += "## Theorem-bound audits\n\n";
        for (const std::string& path : audit_paths) {
            std::string text, error;
            obs::BoundAudit audit("");
            if (!read_file(path, text) || !obs::load_audit(text, audit, &error)) {
                std::cerr << path << ": " << (text.empty() ? "cannot read" : error) << "\n";
                return 2;
            }
            report_audit(md, path, audit);
        }
    }

    if (!monitor_paths.empty()) {
        md += "## Invariant monitors\n\n";
        for (const std::string& path : monitor_paths) {
            std::string text, error;
            if (!read_file(path, text) || !report_monitors(md, path, text, error)) {
                std::cerr << path << ": " << (text.empty() ? "cannot read" : error) << "\n";
                return 2;
            }
        }
    }

    if (!sweep_paths.empty()) {
        md += "## Sweeps\n\n";
        for (const std::string& path : sweep_paths) {
            std::string text, error;
            if (!read_file(path, text) || !report_sweep(md, path, text, error)) {
                std::cerr << path << ": " << (text.empty() ? "cannot read" : error) << "\n";
                return 2;
            }
        }
    }

    if (!metrics_paths.empty()) {
        md += "## Critical paths\n\n";
        for (const std::string& path : metrics_paths) {
            std::string text, error;
            if (!read_file(path, text) || !report_critical_path(md, path, text, error)) {
                std::cerr << path << ": " << (text.empty() ? "cannot read" : error) << "\n";
                return 2;
            }
        }
    }

    if (fail_set) {
        md += "## Regression gate\n\n";
        if (regressions.empty()) {
            md += "No metric regressed beyond " + fmt(fail_pct) + "%.\n";
        } else {
            md += "**" + std::to_string(regressions.size()) +
                  " metric(s) regressed beyond " + fmt(fail_pct) + "%:**\n\n";
            md += "| bench | metric | delta | unit |\n|---|---|---:|---|\n";
            for (const Regression& r : regressions) {
                char buf[64];
                std::snprintf(buf, sizeof buf, "%+.2f%%", r.delta_pct);
                md += "| " + r.bench + " | " + r.metric + " | " + buf + " | " + r.unit +
                      " |\n";
            }
        }
    }

    if (out_path.empty()) {
        std::cout << md;
    } else if (!exec::write_text_file(out_path, md)) {
        std::cerr << "cannot write " << out_path << "\n";
        return 2;
    } else {
        std::cout << "wrote " << out_path << "\n";
    }

    if (!regressions.empty()) {
        std::cerr << regressions.size() << " regression(s) beyond " << fail_pct << "%\n";
        return 1;
    }
    return 0;
}
