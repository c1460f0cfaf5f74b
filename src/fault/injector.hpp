// Deterministic fault injection — the chaos side of the robustness story.
//
// A FaultModel is a declarative description of an adversary: how often
// links flap, how often nodes hard-crash and recover, how lossy and
// duplicative the data-link layer is, and how badly NCUs may stall
// (inflated P). FaultInjector::compile turns a model plus a seed into a
// concrete timed Scenario for one graph — a pure function of
// (model, seed, graph), so the same triple always yields the same
// faults, on any thread, in any sweep slot. That is what lets chaos runs
// ride the exec engine at full parallelism and still byte-diff clean
// against the serial order (scripts/chaos_smoke.sh).
//
// Crash vs. link-down (docs/ROBUSTNESS.md): node crashes scripted here
// are *hard* — ParallelCluster::crash_node wipes the NCU's soft state
// and restart brings up a fresh protocol instance under a new
// incarnation.
// Set FaultModel::crash_nodes = false for the weaker classic model where
// only the links drop and software state survives.
#pragma once

#include <cstdint>
#include <vector>

#include "node/scenario.hpp"

namespace fastnet::node {
struct ParallelClusterConfig;
}

namespace fastnet::fault {

struct FaultModel {
    /// Random link fail/restore draws over the fault window.
    unsigned link_flaps = 0;
    /// Random node crash-or-restart draws over the fault window.
    unsigned node_crashes = 0;
    /// Random NCU stall events (extra processing delay drawn from
    /// [1, stall_max] ticks); models an overloaded NCU — inflated P.
    unsigned stalls = 0;
    Tick stall_max = 0;

    /// Fault window [from, to] (inclusive) in simulated ticks.
    Tick window_from = 0;
    Tick window_to = 0;
    /// When > 0, a heal_all at this tick: every link/node the script left
    /// down comes back, dangling stalls clear — the "after the last
    /// topological change" premise of Theorem 1.
    Tick heal_at = 0;

    /// Edges/nodes the adversary must not touch (e.g. bridges, the
    /// designated measurement node).
    std::vector<EdgeId> protect;
    std::vector<NodeId> protect_nodes;

    /// true → node events are hard crash/restart; false → link-layer
    /// fail/restore (software survives).
    bool crash_nodes = true;

    /// Link-layer corruption, in parts per million per transmission.
    /// NOTE: duplication is safe for sequence-numbered protocols
    /// (topology maintenance, the router) but NOT for token-based ones —
    /// a duplicated election token breaks its mutual-exclusion premise.
    std::uint32_t loss_ppm = 0;
    std::uint32_t dup_ppm = 0;

    /// When > 0, configure() sets the cluster config's trace_capacity to
    /// this (unless one is already set) — every injected fault and its
    /// consequences (drops, dups, crash/restart, timers) become
    /// diagnosable from the exported trace (src/obs/).
    std::size_t trace_capacity = 0;
};

/// Compiles fault models into runnable scripts.
class FaultInjector {
public:
    FaultInjector(FaultModel model, std::uint64_t seed)
        : model_(model), seed_(seed) {}

    const FaultModel& model() const { return model_; }
    std::uint64_t seed() const { return seed_; }

    /// The concrete fault script for `g` — pure in (model, seed, g).
    node::Scenario compile(const graph::Graph& g) const;

    /// Applies the packet-level faults (loss/dup) to a cluster config.
    /// Scenario actions cover everything else.
    void configure(node::ParallelClusterConfig& config) const;

private:
    FaultModel model_;
    std::uint64_t seed_;
};

}  // namespace fastnet::fault
