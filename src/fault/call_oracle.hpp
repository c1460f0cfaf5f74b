// The capacity-conservation oracle for the PARIS call workload.
//
// The call agents keep a distributed bandwidth ledger: the upstream node
// of every directed hop owns that hop's reservation. Under overload,
// message loss, duplication and crash-restart churn, three invariants
// must survive (docs/ROBUSTNESS.md "Calls under fire"):
//
//   * conserved  — at every node, the per-edge ledger equals the sum of
//                  demands of the records that hold that edge, and never
//                  exceeds the configured link capacity (no overbooking,
//                  no phantom units, no double-release);
//   * terminal   — once the workload has drained to quiescence, no
//                  record at a live node is stuck in a non-terminal
//                  state (kSettingUp/kReserved/kActive/kBackoff);
//   * released   — every reservation was given back: the hardened
//                  machine's whole point is that a lost ACCEPT or
//                  TAKEDOWN may delay release (timeout, lease reap) but
//                  can never leak capacity forever.
//
// Like fault::Oracle, checks accumulate readable violations instead of
// throwing, so a chaos sweep reports every broken invariant of a seed at
// once; crashed-and-not-restarted nodes are skipped (their ledgers died
// with them — the *downstream* consequences show up at live nodes).
#pragma once

#include "fault/oracle.hpp"

namespace fastnet::fault {

class CallOracle {
public:
    /// Each node's agent lives in its owning shard; reading all of them
    /// visits every shard's ledger.
    explicit CallOracle(const node::ParallelCluster& cluster) : cluster_(cluster) {}

    /// Per-edge ledger == sum of record demands holding that edge, and
    /// ledger <= link capacity, at every live call agent.
    CallOracle& require_conserved();

    /// No record at a live agent is in a non-terminal state.
    CallOracle& require_terminal();

    /// No capacity is held anywhere (the quiesced end-state of a
    /// workload whose calls all carry finite hold times).
    CallOracle& require_released();

    const OracleReport& report() const { return report_; }
    bool ok() const { return report_.ok(); }

private:
    void fail(std::string msg) { report_.violations.push_back(std::move(msg)); }

    const node::ParallelCluster& cluster_;
    OracleReport report_;
};

/// The standard bundle: conserved + terminal + released.
OracleReport check_calls(const node::ParallelCluster& cluster);

}  // namespace fastnet::fault
