// The theorem-bound auditor (src/obs/audit.hpp): derived bounds hold on
// real runs across graph families, a forged outcome actually fails the
// audit (the auditor must be falsifiable, not a rubber stamp), and the
// JSON export round-trips deterministically with verdicts recomputed on
// load.
#include <gtest/gtest.h>

#include <string>

#include "common/rng.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/rooted_tree.hpp"
#include "hw/anr.hpp"
#include "obs/audit.hpp"
#include "topo/broadcast_plan.hpp"
#include "topo/broadcast_protocols.hpp"
#include "topo/labeling.hpp"
#include "topo/lower_bound.hpp"

namespace fastnet::obs {
namespace {

using topo::BroadcastScheme;

// ---- Theorem 2 + flooding contrast across graph families ----------------

TEST(Audit, BranchingPathsBoundsHoldAcrossFamilies) {
    BoundAudit audit("t2");
    Rng rng(7);
    const graph::Graph families[] = {
        graph::make_random_connected(96, 1, 40, rng),
        graph::make_grid(8, 9),
        graph::make_hypercube(6),
        graph::make_complete_binary_tree(6),
    };
    for (const graph::Graph& g : families) {
        const auto out = topo::run_broadcast(g, BroadcastScheme::kBranchingPaths, 0);
        ASSERT_TRUE(out.all_received);
        audit.broadcast(g, BroadcastScheme::kBranchingPaths, nullptr, out,
                        ModelParams::fast_network());
    }
    EXPECT_TRUE(audit.pass()) << audit_json(audit);
    EXPECT_EQ(audit.violation_count(), 0u);
    // Four checks per family: coverage, time units, system calls, hops.
    EXPECT_EQ(audit.checks().size(), 4u * std::size(families));
}

TEST(Audit, FloodingContrastBoundHoldsAcrossFamilies) {
    BoundAudit audit("flood");
    Rng rng(11);
    const graph::Graph families[] = {
        graph::make_random_connected(64, 1, 30, rng),
        graph::make_grid(6, 6),
        graph::make_hypercube(5),
    };
    for (const graph::Graph& g : families) {
        const auto out = topo::run_broadcast(g, BroadcastScheme::kFlooding, 0);
        ASSERT_TRUE(out.all_received);
        audit.broadcast(g, BroadcastScheme::kFlooding, nullptr, out,
                        ModelParams::fast_network());
        // The O(m) bound is the contrast with Theorem 2's O(n): on dense
        // graphs flooding's observed calls exceed branching-paths' n bound.
        if (g.edge_count() > 2 * g.node_count()) {
            EXPECT_GT(out.cost.system_calls, g.node_count());
        }
    }
    EXPECT_TRUE(audit.pass()) << audit_json(audit);
}

TEST(Audit, PlanBoundsAuditedWhenPlanProvided) {
    Rng rng(3);
    const graph::Graph g = graph::make_random_tree(128, rng);
    const graph::RootedTree tree = graph::min_hop_tree(g, 0);
    const hw::PortMap ports = hw::canonical_ports(g);
    const topo::BroadcastPlan plan = topo::plan_branching_paths(tree, ports);
    const auto out = topo::run_broadcast(g, BroadcastScheme::kBranchingPaths, 0);
    BoundAudit audit("plan");
    audit.broadcast(g, BroadcastScheme::kBranchingPaths, &plan, out,
                    ModelParams::fast_network());
    EXPECT_TRUE(audit.pass()) << audit_json(audit);
    bool saw_plan_check = false;
    for (const BoundCheck& c : audit.checks())
        saw_plan_check |= c.name == "branching-paths/plan_time_units";
    EXPECT_TRUE(saw_plan_check);
}

TEST(Audit, TimeUnitCheckOnlyUnderLimitingModel) {
    const graph::Graph g = graph::make_star(32);
    const auto out = topo::run_broadcast(g, BroadcastScheme::kBranchingPaths, 0);
    BoundAudit fast("fast"), traditional("traditional");
    fast.broadcast(g, BroadcastScheme::kBranchingPaths, nullptr, out,
                   ModelParams::fast_network());
    traditional.broadcast(g, BroadcastScheme::kBranchingPaths, nullptr, out,
                          ModelParams::traditional());
    auto has_time_check = [](const BoundAudit& a) {
        for (const BoundCheck& c : a.checks())
            if (c.name == "branching-paths/theorem2_time_units") return true;
        return false;
    };
    EXPECT_TRUE(has_time_check(fast));
    EXPECT_FALSE(has_time_check(traditional));  // time units undefined there
}

// ---- the auditor must be falsifiable ------------------------------------

TEST(Audit, ForgedOutcomeFailsTheAudit) {
    const graph::Graph g = graph::make_grid(5, 5);
    auto out = topo::run_broadcast(g, BroadcastScheme::kBranchingPaths, 0);
    ASSERT_TRUE(out.all_received);

    // Forge the observed costs past the derived bounds: more system
    // calls than Theorem 2 allows, more time units than 1 + log2(n).
    out.cost.system_calls = g.node_count() + 5;
    out.time_units = static_cast<double>(topo::theorem2_time_bound(g.node_count())) + 1;
    BoundAudit audit("forged");
    audit.broadcast(g, BroadcastScheme::kBranchingPaths, nullptr, out,
                    ModelParams::fast_network());
    EXPECT_FALSE(audit.pass());
    EXPECT_EQ(audit.violation_count(), 2u);
    for (const BoundCheck& c : audit.checks()) {
        if (c.name == "branching-paths/theorem2_system_calls") {
            EXPECT_FALSE(c.pass);
            EXPECT_LT(c.slack, 0);
        }
    }
}

TEST(Audit, MissedNodeFailsCoverage) {
    const graph::Graph g = graph::make_cycle(12);
    auto out = topo::run_broadcast(g, BroadcastScheme::kFlooding, 0);
    ASSERT_TRUE(out.all_received);
    out.received[5] = false;  // forge a hole in the coverage
    BoundAudit audit("hole");
    audit.broadcast(g, BroadcastScheme::kFlooding, nullptr, out,
                    ModelParams::fast_network());
    EXPECT_FALSE(audit.pass());
}

// ---- Theorem 3 lower bound ----------------------------------------------

TEST(Audit, LowerBoundHoldsOnBinaryTreeBroadcast) {
    for (unsigned depth : {3u, 5u, 7u}) {
        const graph::Graph g = graph::make_complete_binary_tree(depth);
        const auto out = topo::run_broadcast(g, BroadcastScheme::kBranchingPaths, 0);
        ASSERT_TRUE(out.all_received);
        BoundAudit audit("t3");
        audit.broadcast_lower_bound(depth, out.time_units);
        EXPECT_TRUE(audit.pass())
            << "depth " << depth << ": " << audit_json(audit);
        // And a sub-lower-bound claim must fail.
        BoundAudit forged("t3-forged");
        forged.broadcast_lower_bound(
            depth, static_cast<double>(topo::one_way_lower_bound(depth)));
        EXPECT_FALSE(forged.pass());
    }
}

// ---- election (Theorem 5 + Lemma 6) -------------------------------------

TEST(Audit, ElectionBoundsHold) {
    Rng rng(5);
    const graph::Graph g = graph::make_random_connected(48, 1, 12, rng);
    const auto out = elect::run_election(g);
    ASSERT_TRUE(out.unique_leader);
    BoundAudit audit("e");
    audit.election(g, elect::ElectionOptions{}, out);
    EXPECT_TRUE(audit.pass()) << audit_json(audit);
}

TEST(Audit, ForgedElectionMessageCountFails) {
    const graph::Graph g = graph::make_cycle(16);
    elect::ElectionOptions opt;
    opt.announce = false;
    auto out = elect::run_election(g, opt);
    ASSERT_TRUE(out.unique_leader);
    out.election_messages = elect::theorem5_call_bound(g.node_count()) + 1;
    BoundAudit audit("e-forged");
    audit.election(g, opt, out);
    EXPECT_FALSE(audit.pass());
}

// ---- phase budgets from sampled metrics ---------------------------------

TEST(Audit, PhaseBudgetReadsSampledAttribution) {
    cost::Metrics metrics(4);
    metrics.enable_sampling(4, 16);
    for (int i = 0; i < 5; ++i) metrics.sampling()->phase_call(2);
    BoundAudit ok("pb"), over("pb-over");
    ok.phase_budget(metrics, 2, 5);
    EXPECT_TRUE(ok.pass());
    over.phase_budget(metrics, 2, 4);
    EXPECT_FALSE(over.pass());
}

// ---- JSON export + ingestion --------------------------------------------

TEST(Audit, JsonRoundTripsByteIdentically) {
    const graph::Graph g = graph::make_grid(4, 4);
    const auto out = topo::run_broadcast(g, BroadcastScheme::kBranchingPaths, 0);
    BoundAudit audit("roundtrip");
    audit.broadcast(g, BroadcastScheme::kBranchingPaths, nullptr, out,
                    ModelParams::fast_network());
    const std::string text = audit_json(audit);

    BoundAudit loaded("");
    std::string error;
    ASSERT_TRUE(load_audit(text, loaded, &error)) << error;
    EXPECT_EQ(loaded.name(), "roundtrip");
    EXPECT_EQ(loaded.checks().size(), audit.checks().size());
    EXPECT_EQ(audit_json(loaded), text);
}

TEST(Audit, LoaderRecomputesVerdicts) {
    // A hand-edited export cannot smuggle a passing verdict: flip an
    // observed value past its bound while leaving "pass": true — the
    // loader recomputes slack and verdict from (kind, bound, observed).
    const std::string text =
        "{\n  \"fastnet_audit\": 1,\n  \"name\": \"tampered\",\n"
        "  \"pass\": true,\n  \"violations\": 0,\n  \"checks\": [\n"
        "    {\"name\": \"x\", \"kind\": \"at_most\", \"bound\": 10, "
        "\"observed\": 11, \"slack\": 1, \"pass\": true}\n  ]\n}\n";
    BoundAudit loaded("");
    std::string error;
    ASSERT_TRUE(load_audit(text, loaded, &error)) << error;
    EXPECT_FALSE(loaded.pass());
    ASSERT_EQ(loaded.checks().size(), 1u);
    EXPECT_EQ(loaded.checks()[0].slack, -1);
}

TEST(Audit, LoaderRejectsForeignDocuments) {
    BoundAudit loaded("");
    std::string error;
    EXPECT_FALSE(load_audit("{\"bench\": \"x\", \"results\": []}", loaded, &error));
    EXPECT_FALSE(load_audit("not json", loaded, &error));
    EXPECT_FALSE(load_audit(
        "{\"fastnet_audit\": 1, \"name\": \"x\", \"checks\": "
        "[{\"name\": \"c\", \"kind\": \"sideways\", \"bound\": 1, \"observed\": 1}]}",
        loaded, &error));
}

}  // namespace
}  // namespace fastnet::obs
