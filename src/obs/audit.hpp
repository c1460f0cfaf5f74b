// Theorem-bound auditing: the paper's predicted costs, checked against a
// concrete run's observed costs.
//
// Every algorithm in the repro ships with a provable bound — Theorem 2
// (branching-paths broadcast: <= 1 + floor(log2 n) time units and n
// system calls, vs flooding's O(m) calls), Theorem 3 (Omega(log n)
// one-way lower bound), Theorems 4-5 (election: <= 6n direct messages),
// Lemma 6 (phase-p captures <= n / 2^p). A BoundAudit *derives* those
// bounds for one run from its inputs (graph, plan, protocol choice,
// options) and compares them against the observed cost::Metrics totals,
// producing structured verdicts: bound, observed, slack, pass/violation.
//
// Audits serialize to deterministic JSON (audit_json) next to the
// metrics_json exports; tools/fastnet_report ingests them (load_audit)
// into the run report. The point is executable theorems: a regression
// that breaks a bound fails a test, not a reader's eyeball.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "cost/metrics.hpp"
#include "election/election.hpp"
#include "graph/graph.hpp"
#include "topo/broadcast_protocols.hpp"

namespace fastnet::obs {

/// One bound comparison. `slack` is how much room the run left: for
/// kAtMost `bound - observed`, for kAtLeast `observed - bound`, for
/// kExactly `-(|observed - bound|)` — in every case pass <=> slack >= 0.
struct BoundCheck {
    enum class Kind { kAtMost, kAtLeast, kExactly };

    std::string name;
    Kind kind = Kind::kAtMost;
    double bound = 0;
    double observed = 0;
    double slack = 0;
    bool pass = false;
};

const char* bound_check_kind_name(BoundCheck::Kind k);

class BoundAudit {
public:
    explicit BoundAudit(std::string name) : name_(std::move(name)) {}

    // ---- generic checks ----------------------------------------------
    void require_at_most(std::string check, double observed, double bound);
    void require_at_least(std::string check, double observed, double bound);
    void require_exactly(std::string check, double observed, double bound);

    // ---- derived theorem audits --------------------------------------
    /// Audits one broadcast run. Scheme-specific bounds are derived from
    /// the graph (n, m) and, for planned schemes, the shipped plan:
    /// coverage, Theorem 2 time units (only under the limiting model
    /// C == 0, P > 0 — time units are undefined otherwise) and system
    /// calls for branching paths, the O(m)-call bound for flooding, the
    /// n-1-call bounds for the single-token and unicast baselines.
    /// `plan` may be null (e.g. flooding has none).
    void broadcast(const graph::Graph& g, topo::BroadcastScheme scheme,
                   const topo::BroadcastPlan* plan, const topo::BroadcastOutcome& outcome,
                   const ModelParams& params);

    /// Audits one election run: unique leader, Theorem 5's 6n direct
    /// messages (plus n-1 when announcement is on), Lemma 6's per-phase
    /// capture counts.
    void election(const graph::Graph& g, const elect::ElectionOptions& options,
                  const elect::ElectionOutcome& outcome);

    /// Theorem 3 on the complete binary tree of `depth`: any one-way
    /// broadcast must observe strictly more time units than the
    /// adversary's certificate.
    void broadcast_lower_bound(unsigned depth, double observed_units);

    /// Per-phase system-call budget, read from the metrics' phase
    /// attribution (requires sampling — see ParallelCluster::mark_phase).
    void phase_budget(const cost::Metrics& metrics, std::uint64_t phase,
                      std::uint64_t max_calls);

    /// Prices an observed critical path against a theorem bound:
    /// witness latency <= `bound_ticks` (e.g. Theorem 2's broadcast time
    /// in ticks, or the paris retry envelope), plus the engine's own
    /// conservation law — the per-segment attribution must sum exactly
    /// to the end-to-end latency (obs/critical_path.hpp maintains this
    /// by construction; the audit makes it an executable check).
    void critical_path(const cost::CriticalPathStats& stats, double bound_ticks);

    // ---- verdict ------------------------------------------------------
    const std::string& name() const { return name_; }
    const std::vector<BoundCheck>& checks() const { return checks_; }
    bool pass() const;
    std::size_t violation_count() const;

private:
    void push(std::string name, BoundCheck::Kind kind, double observed, double bound);

    std::string name_;
    std::vector<BoundCheck> checks_;
};

/// Deterministic JSON: `{"fastnet_audit": 1, "name": ..., "pass": ...,
/// "checks": [...]}` with shortest-round-trip doubles — byte-identical
/// for equal audits regardless of platform or thread count.
std::string audit_json(const BoundAudit& audit);

/// Parses an audit_json document back (fastnet_report's ingestion).
/// Slack and verdicts are recomputed from (kind, bound, observed), so a
/// hand-edited file cannot smuggle a passing verdict past the loader.
bool load_audit(std::string_view text, BoundAudit& out, std::string* error = nullptr);

}  // namespace fastnet::obs
