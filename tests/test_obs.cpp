// The observability toolchain end to end: the strict JSON parser, the
// canonical + Chrome exporters and their validators, offline causal
// queries, and — the acceptance bar — diagnosing a chaos failure from
// the exported JSON text alone, with no access to the live Trace.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "node/parallel_cluster.hpp"
#include "node/scenario.hpp"
#include "obs/json.hpp"
#include "obs/metrics_export.hpp"
#include "obs/trace_export.hpp"
#include "obs/trace_query.hpp"

namespace fastnet::obs {
namespace {

using sim::TraceKind;
using sim::TraceRecord;

// ---- JSON parser -------------------------------------------------------

TEST(Json, ParsesScalarsWithExactIntegers) {
    JsonValue v;
    std::string err;
    ASSERT_TRUE(json_parse(
        R"({"u": 18446744073709551615, "i": -5, "d": 1.5, "e": 2e3,
            "s": "a\nbA", "t": true, "f": false, "z": null})",
        v, &err))
        << err;
    ASSERT_TRUE(v.is_object());
    EXPECT_EQ(v.find("u")->type, JsonValue::Type::kUInt);
    EXPECT_EQ(v.find("u")->uint_value, 18446744073709551615ull);
    EXPECT_EQ(v.find("i")->type, JsonValue::Type::kInt);
    EXPECT_EQ(v.find("i")->int_value, -5);
    EXPECT_EQ(v.find("d")->type, JsonValue::Type::kDouble);
    EXPECT_DOUBLE_EQ(v.find("d")->as_double(), 1.5);
    EXPECT_DOUBLE_EQ(v.find("e")->as_double(), 2000.0);
    EXPECT_EQ(v.find("s")->string, "a\nbA");
    EXPECT_TRUE(v.find("t")->boolean);
    EXPECT_FALSE(v.find("f")->boolean);
    EXPECT_EQ(v.find("z")->type, JsonValue::Type::kNull);
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, PreservesKeyOrderAndNests) {
    JsonValue v;
    ASSERT_TRUE(json_parse(R"({"b": [1, [2, {"c": 3}]], "a": 0})", v));
    ASSERT_EQ(v.object.size(), 2u);
    EXPECT_EQ(v.object[0].first, "b");  // written order, not sorted
    EXPECT_EQ(v.object[1].first, "a");
    const JsonValue& arr = *v.find("b");
    ASSERT_TRUE(arr.is_array());
    ASSERT_EQ(arr.array.size(), 2u);
    EXPECT_EQ(arr.array[1].array[1].find("c")->uint_value, 3u);
}

TEST(Json, RejectsNonRfc8259Input) {
    const char* bad[] = {
        "",                      // nothing
        "{",                     // unterminated object
        "[1, 2,]",               // trailing comma
        "{\"a\": 01}",           // leading zero
        "{a: 1}",                // unquoted key
        "NaN",                   // not a JSON value
        "\"unterminated",        // unterminated string
        "\"bad \\x escape\"",    // unknown escape
        "1 2",                   // trailing garbage
        "{\"a\": 1} extra",      // trailing garbage after object
        "[1] ]",                 // trailing bracket
    };
    for (const char* text : bad) {
        JsonValue v;
        std::string err;
        EXPECT_FALSE(json_parse(text, v, &err)) << "accepted: " << text;
        EXPECT_FALSE(err.empty()) << text;
    }
    // Depth cap: 70 nested arrays blow the 64-deep recursion budget.
    std::string deep(70, '[');
    deep += std::string(70, ']');
    JsonValue v;
    EXPECT_FALSE(json_parse(deep, v));
}

TEST(Json, EscapeRoundTripsControlCharacters) {
    const std::string nasty = "quote\" back\\slash \n\t\r\b\f \x01\x1f plain";
    const std::string quoted = json_quote(nasty);
    JsonValue v;
    std::string err;
    ASSERT_TRUE(json_parse(quoted, v, &err)) << err << " in " << quoted;
    ASSERT_TRUE(v.is_string());
    EXPECT_EQ(v.string, nasty);
}

// ---- canonical export round trip --------------------------------------

/// A small hand-recorded trace with every field class exercised.
sim::Trace make_sample_trace() {
    sim::Trace t(64);
    t.record(0, 0, TraceKind::kStart, {.b = 2});
    t.record(3, 0, TraceKind::kSend, {.lineage = 1, .a = 4, .b = 0});
    t.record(5, kNoNode, TraceKind::kHop, {.lineage = 1, .a = 0, .b = 1});
    t.record(7, kNoNode, TraceKind::kDrop,
             {.lineage = 1, .a = 0, .flag = static_cast<std::uint8_t>(
                                        sim::DropReason::kInactiveLink)});
    t.record_detail(9, 1, TraceKind::kCustom, "free-form \"text\"\n",
                    {.lineage = 1});
    return t;
}

TEST(Export, CanonicalRoundTrip) {
    const sim::Trace t = make_sample_trace();
    const graph::Graph g = graph::make_path(2);
    const std::string json = canonical_trace_json(t, make_meta(g, "round/trip"));

    LoadedTrace loaded;
    std::string err;
    ASSERT_TRUE(load_canonical(json, loaded, &err)) << err;
    EXPECT_EQ(loaded.meta.name, "round/trip");
    EXPECT_EQ(loaded.meta.nodes, 2u);
    ASSERT_EQ(loaded.meta.edges.size(), 1u);
    EXPECT_EQ(loaded.meta.edges[0], (std::pair<NodeId, NodeId>{0, 1}));
    EXPECT_EQ(loaded.total_recorded, 5u);
    EXPECT_EQ(loaded.dropped, 0u);

    const std::vector<TraceRecord> original = t.snapshot();
    ASSERT_EQ(loaded.records.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(loaded.records[i].at, original[i].at) << i;
        EXPECT_EQ(loaded.records[i].node, original[i].node) << i;
        EXPECT_EQ(loaded.records[i].kind, original[i].kind) << i;
        EXPECT_EQ(loaded.records[i].flag, original[i].flag) << i;
        EXPECT_EQ(loaded.records[i].lineage, original[i].lineage) << i;
        EXPECT_EQ(loaded.records[i].a, original[i].a) << i;
        EXPECT_EQ(loaded.records[i].b, original[i].b) << i;
        EXPECT_EQ(loaded.records[i].detail, original[i].detail) << i;
    }
    EXPECT_EQ(loaded.records[4].detail, "free-form \"text\"\n");
    EXPECT_TRUE(check_canonical(json, &err)) << err;
}

TEST(Export, CanonicalValidatorCatchesCorruption) {
    std::string err;
    EXPECT_FALSE(check_canonical("{}", &err));
    EXPECT_FALSE(err.empty());

    // Record accounting must add up: records.size() + dropped == total.
    EXPECT_FALSE(check_canonical(
        R"({"fastnet_trace":1,"name":"x","nodes":2,"edges":[[0,1]],
            "total_recorded":3,"dropped":0,"detail_dropped":0,"records":[
            {"at":0,"node":0,"kind":"send","lineage":1,"a":0,"b":0,"flag":0}]})",
        &err))
        << "count mismatch accepted";

    // Records must be chronological.
    EXPECT_FALSE(check_canonical(
        R"({"fastnet_trace":1,"name":"x","nodes":2,"edges":[[0,1]],
            "total_recorded":2,"dropped":0,"detail_dropped":0,"records":[
            {"at":5,"node":0,"kind":"send","lineage":1,"a":0,"b":0,"flag":0},
            {"at":3,"node":0,"kind":"hop","lineage":1,"a":0,"b":1,"flag":0}]})",
        &err))
        << "time went backwards and the validator said nothing";

    // Unknown kind names are schema violations, not kCustom fallbacks.
    EXPECT_FALSE(check_canonical(
        R"({"fastnet_trace":1,"name":"x","nodes":1,"edges":[],
            "total_recorded":1,"dropped":0,"detail_dropped":0,"records":[
            {"at":0,"node":0,"kind":"warp","lineage":0,"a":0,"b":0,"flag":0}]})",
        &err));
}

TEST(Export, CanonicalRecordBytesOfEdgeValues) {
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    TraceRecord scope;  // network scope, every word at its maximum, c unset
    scope.at = 42;
    scope.node = kNoNode;
    scope.kind = TraceKind::kHop;
    scope.flag = 255;
    scope.lineage = kMax;
    scope.a = kMax;
    scope.b = kMax;
    scope.detail = std::string("q\"b\\s\nx\x01y");

    TraceRecord anchored;  // c set, no detail
    anchored.at = 7;
    anchored.node = 3;
    anchored.kind = TraceKind::kDeliver;
    anchored.lineage = 1;
    anchored.a = 2;
    anchored.c = 5;

    // The record appends to what the buffer already holds.
    std::string out = "<";
    append_canonical_record(out, scope);
    append_canonical_record(out, anchored);
    EXPECT_EQ(out,
              R"(<{"at":42,"node":-1,"kind":"hop","lineage":18446744073709551615,)"
              R"("a":18446744073709551615,"b":18446744073709551615,"flag":255,)"
              R"("detail":"q\"b\\s\nx\u0001y"})"
              R"({"at":7,"node":3,"kind":"deliver","lineage":1,"a":2,"b":0,"c":5,"flag":0})");
}

// ---- Chrome export -----------------------------------------------------

TEST(Export, ChromeOfSampleTraceIsSchemaValid) {
    const sim::Trace t = make_sample_trace();
    const graph::Graph g = graph::make_path(2);
    const std::string json = chrome_trace_json(t, make_meta(g, "chrome/sample"));
    std::string err;
    EXPECT_TRUE(check_chrome(json, &err)) << err << "\n" << json;
}

TEST(Export, ChromeValidatorCatchesCorruption) {
    std::string err;
    EXPECT_FALSE(check_chrome("[]", &err)) << "top-level array accepted";
    EXPECT_FALSE(check_chrome(
        R"({"traceEvents":[{"name":"x","ph":"Z","pid":1,"tid":0,"ts":0}]})",
        &err))
        << "unknown phase accepted";
    EXPECT_FALSE(check_chrome(
        R"({"traceEvents":[{"name":"x","ph":"X","pid":1,"tid":0,"ts":-1,"dur":1}]})",
        &err))
        << "negative timestamp accepted";
    EXPECT_FALSE(check_chrome(
        R"({"traceEvents":[{"name":"x","ph":"i","pid":1,"tid":0,"ts":0,"s":"q"}]})",
        &err))
        << "bogus instant scope accepted";
}

// ---- causal diagnosis from the exported file alone ---------------------

struct Ping final : hw::TypedPayload<Ping> {};

/// Relays one ping down the path: node 0 starts it, every intermediate
/// node's handler re-sends towards the higher-numbered neighbor. Each
/// re-send is a *new* packet whose kSend record carries the incoming
/// lineage as its causal parent — the chain the diagnosis test walks.
struct Relay final : node::Protocol {
    void on_start(node::Context& ctx) override { forward(ctx); }
    void on_message(node::Context& ctx, const hw::Delivery&) override { forward(ctx); }

    static void forward(node::Context& ctx) {
        for (const node::LocalLink& l : ctx.links()) {
            if (l.neighbor > ctx.self()) {
                hw::AnrHeader h{hw::AnrLabel::normal(l.port),
                                hw::AnrLabel::normal(hw::kNcuPort)};
                ctx.send(std::move(h), std::make_shared<Ping>());
                return;
            }
        }
    }
};

TEST(Causal, ChaosDropDiagnosedFromExportedJsonAlone) {
    // 0 --edge-> 1 --DOWN edge-> 2: node 1's relay attempt dies on the
    // failed link. Everything below the export line uses only the JSON
    // text, never the live cluster — the acceptance bar for the trace
    // being a self-sufficient diagnostic artifact.
    node::ParallelClusterConfig cfg;
    cfg.trace_capacity = 1024;
    node::ParallelCluster cluster(
        graph::make_path(3), [](NodeId) { return std::make_unique<Relay>(); }, cfg);

    EdgeId broken = kNoEdge;
    for (EdgeId e = 0; e < cluster.graph().edge_count(); ++e) {
        const auto& ed = cluster.graph().edge(e);
        if (ed.a == 1 && ed.b == 2) broken = e;
    }
    ASSERT_NE(broken, kNoEdge);
    cluster.fail_link(0, broken);
    cluster.start(0, 0);
    cluster.run();

    const std::string json = canonical_trace_json(
        cluster.merged_trace(), make_meta(cluster.graph(), "chaos"),
        cluster.trace_total_recorded(), cluster.trace_dropped(), cluster.trace_detail_dropped());

    // ---- offline: JSON text in, diagnosis out --------------------------
    LoadedTrace loaded;
    std::string err;
    ASSERT_TRUE(load_canonical(json, loaded, &err)) << err;

    const auto drops =
        filter_records(loaded.records, {.kind = TraceKind::kDrop});
    ASSERT_EQ(drops.size(), 1u);
    const TraceRecord& drop = drops[0];
    EXPECT_EQ(drop.flag,
              static_cast<std::uint8_t>(sim::DropReason::kInactiveLink));
    // The drop names the edge; the export's meta resolves its endpoints.
    ASSERT_LT(drop.a, loaded.meta.edges.size());
    EXPECT_EQ(loaded.meta.edges[drop.a], (std::pair<NodeId, NodeId>{1, 2}));

    // Causal chain: the dropped packet was sent by node 1's handler,
    // which itself ran because of node 0's original send.
    const auto ancestry = lineage_ancestry(loaded.records, drop.lineage);
    ASSERT_EQ(ancestry.size(), 2u) << "expected root send + relayed send";
    EXPECT_EQ(ancestry.back(), drop.lineage);

    const auto chain = causal_chain(loaded.records, drop.lineage);
    ASSERT_GE(chain.size(), 4u);  // send(0), hop, deliver(1), send(1), drop
    EXPECT_EQ(chain.front().kind, TraceKind::kSend);
    EXPECT_EQ(chain.front().node, 0u);
    EXPECT_EQ(chain.front().lineage, ancestry.front());
    EXPECT_EQ(chain.back().kind, TraceKind::kDrop);

    std::vector<TraceRecord> sends;
    for (const TraceRecord& r : chain)
        if (r.kind == TraceKind::kSend) sends.push_back(r);
    ASSERT_EQ(sends.size(), 2u);
    EXPECT_EQ(sends[1].node, 1u);
    EXPECT_EQ(sends[1].b, ancestry.front()) << "relayed send must name its parent";

    // And the human rendering names the failure cause.
    EXPECT_NE(format_records(drops).find("inactive_link"), std::string::npos);
}

TEST(Causal, DuplicateInheritsLineage) {
    node::ParallelClusterConfig cfg;
    cfg.trace_capacity = 1024;
    cfg.net.dup_ppm = 1'000'000;  // every transmission duplicates
    node::ParallelCluster cluster(
        graph::make_path(2), [](NodeId) { return std::make_unique<Relay>(); }, cfg);
    cluster.start(0, 0);
    cluster.run();

    const auto records = cluster.merged_trace();
    const auto dups = filter_records(records, {.kind = TraceKind::kDup});
    ASSERT_FALSE(dups.empty());
    const auto sends = filter_records(records, {.kind = TraceKind::kSend});
    ASSERT_EQ(sends.size(), 1u);
    for (const TraceRecord& d : dups)
        EXPECT_EQ(d.lineage, sends[0].lineage)
            << "a link-layer duplicate is causally its original's lineage";
    // Both the original and the duplicate arrived, under one lineage.
    const auto delivers = filter_records(records, {.kind = TraceKind::kDeliver});
    ASSERT_EQ(delivers.size(), 2u);
    EXPECT_EQ(delivers[0].lineage, sends[0].lineage);
    EXPECT_EQ(delivers[1].lineage, sends[0].lineage);
}

TEST(Causal, ClusterChromeExportIsSchemaValid) {
    // The acceptance criterion checked against a *real* cluster run with
    // crash churn, not just the hand-built sample trace.
    node::ParallelClusterConfig cfg;
    cfg.trace_capacity = 4096;
    node::ParallelCluster cluster(
        graph::make_path(4), [](NodeId) { return std::make_unique<Relay>(); }, cfg);
    cluster.start(0, 0);
    cluster.schedule(node::Scenario().crash_node(2, 3).restart_node(6, 3));
    cluster.run();

    const ExportMeta meta = make_meta(cluster.graph(), "chrome/cluster");
    const std::vector<TraceRecord> records = cluster.merged_trace();
    std::string err;
    EXPECT_TRUE(check_chrome(chrome_trace_json(records, meta), &err)) << err;
    EXPECT_TRUE(check_canonical(
        canonical_trace_json(records, meta, cluster.trace_total_recorded(),
                             cluster.trace_dropped(), cluster.trace_detail_dropped()),
        &err))
        << err;
}

// ---- offline queries on hand-built histories ---------------------------

std::vector<TraceRecord> crash_history() {
    return {
        {.at = 5, .node = 0, .kind = TraceKind::kSend, .lineage = 1},
        {.at = 10, .node = 2, .kind = TraceKind::kCrash, .a = 0},
        {.at = 12,
         .node = kNoNode,
         .kind = TraceKind::kDrop,
         .flag = static_cast<std::uint8_t>(sim::DropReason::kStaleEpoch),
         .lineage = 1},
        {.at = 14, .node = kNoNode, .kind = TraceKind::kDrop, .lineage = 2},
        {.at = 20, .node = 2, .kind = TraceKind::kRestart, .a = 1},
        {.at = 25, .node = 2, .kind = TraceKind::kDeliver, .lineage = 3, .a = 1},
        {.at = 30, .node = 1, .kind = TraceKind::kDeliver, .lineage = 3, .a = 2},
    };
}

TEST(Query, FilterIsConjunctive) {
    const auto h = crash_history();
    EXPECT_EQ(filter_records(h, {}).size(), h.size());
    EXPECT_EQ(filter_records(h, {.node = 2}).size(), 3u);
    EXPECT_EQ(filter_records(h, {.kind = TraceKind::kDrop}).size(), 2u);
    EXPECT_EQ(filter_records(h, {.lineage = 3}).size(), 2u);
    EXPECT_EQ(filter_records(h, {.from = 12, .to = 20}).size(), 3u);
    EXPECT_EQ(filter_records(h, {.node = 2, .from = 20}).size(), 2u);
    EXPECT_EQ(
        filter_records(h, {.node = 2, .kind = TraceKind::kDeliver, .to = 20}).size(),
        0u);
}

TEST(Query, KindCountsIndexByKind) {
    const auto counts = kind_counts(crash_history());
    EXPECT_EQ(counts[static_cast<unsigned>(TraceKind::kSend)], 1u);
    EXPECT_EQ(counts[static_cast<unsigned>(TraceKind::kDrop)], 2u);
    EXPECT_EQ(counts[static_cast<unsigned>(TraceKind::kDeliver)], 2u);
    EXPECT_EQ(counts[static_cast<unsigned>(TraceKind::kHop)], 0u);
}

TEST(Query, CrashEpisodeReconstruction) {
    const auto episodes = crash_episodes(crash_history());
    ASSERT_EQ(episodes.size(), 1u);
    const CrashEpisode& ep = episodes[0];
    EXPECT_EQ(ep.node, 2u);
    EXPECT_EQ(ep.crashed_at, 10);
    EXPECT_EQ(ep.restarted_at, 20);
    EXPECT_EQ(ep.drops_while_down, 2u);
    EXPECT_EQ(ep.deliveries_after_restart, 1u);  // node 2's own, not node 1's
    EXPECT_EQ(ep.settled_at, 30);

    const std::string report = format_reconvergence(crash_history());
    EXPECT_NE(report.find("node 2"), std::string::npos);
    EXPECT_NE(report.find("t=10"), std::string::npos);
    EXPECT_NE(report.find("drops while down: 2"), std::string::npos);
}

TEST(Query, UnrestartedCrashHasOpenEpisode) {
    std::vector<TraceRecord> h = {
        {.at = 4, .node = 1, .kind = TraceKind::kCrash, .a = 0},
        {.at = 9, .node = kNoNode, .kind = TraceKind::kDrop, .lineage = 7},
    };
    const auto episodes = crash_episodes(h);
    ASSERT_EQ(episodes.size(), 1u);
    EXPECT_EQ(episodes[0].restarted_at, kNever);
    EXPECT_EQ(episodes[0].drops_while_down, 1u);
    EXPECT_EQ(episodes[0].deliveries_after_restart, 0u);
}

// ---- metrics export ----------------------------------------------------

TEST(MetricsExport, SampledRunProducesValidJson) {
    node::ParallelClusterConfig cfg;
    cfg.sample_window = 2;
    node::ParallelCluster cluster(
        graph::make_path(4), [](NodeId) { return std::make_unique<Relay>(); }, cfg);
    cluster.mark_phase(0, 1);
    cluster.start(0, 0);
    cluster.run();

    const std::string json = metrics_json(cluster.merged_metrics(), "sampled/run");
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(json_parse(json, doc, &err)) << err << "\n" << json;
    EXPECT_EQ(doc.find("name")->string, "sampled/run");

    const JsonValue* sampling = doc.find("sampling");
    ASSERT_NE(sampling, nullptr);
    ASSERT_TRUE(sampling->is_object()) << "sampling ran; block must not be null";
    const JsonValue* per_node = sampling->find("per_node");
    ASSERT_NE(per_node, nullptr);
    ASSERT_TRUE(per_node->is_array());
    EXPECT_EQ(per_node->array.size(), 4u);
    EXPECT_NE(sampling->find("phase_calls"), nullptr);
    const JsonValue* histograms = sampling->find("histograms");
    ASSERT_NE(histograms, nullptr);
    EXPECT_NE(histograms->find("hop_latency"), nullptr);
    EXPECT_NE(histograms->find("queue_depth"), nullptr);
}

TEST(MetricsExport, UnsampledRunSerializesNullBlock) {
    node::ParallelCluster cluster(
        graph::make_path(2), [](NodeId) { return std::make_unique<Relay>(); });
    cluster.start(0, 0);
    cluster.run();
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(json_parse(metrics_json(cluster.merged_metrics(), "plain"), doc, &err))
        << err;
    const JsonValue* sampling = doc.find("sampling");
    ASSERT_NE(sampling, nullptr);
    EXPECT_EQ(sampling->type, JsonValue::Type::kNull);
}

}  // namespace
}  // namespace fastnet::obs
