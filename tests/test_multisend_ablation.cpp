// Unit-level tests of the A1 ablation semantics: with free_multisend
// off, the i-th send of a handler leaves i*P later and the NCU stays
// busy until the last one has left.
#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "node/parallel_cluster.hpp"

namespace fastnet::node {
namespace {

struct Note final : hw::TypedPayload<Note> {
    explicit Note(int v) : value(v) {}
    int value;
};

class FanOut : public Protocol {
public:
    explicit FanOut(int count) : count_(count) {}
    void on_start(Context& ctx) override {
        for (int i = 0; i < count_; ++i) {
            hw::AnrHeader h{hw::AnrLabel::normal(ctx.links()[0].port),
                            hw::AnrLabel::normal(hw::kNcuPort)};
            ctx.send(std::move(h), std::make_shared<Note>(i));
        }
    }

private:
    int count_;
};

class Sink : public Protocol {
public:
    void on_message(Context& ctx, const hw::Delivery& d) override {
        arrivals.emplace_back(ctx.now(), hw::payload_as<Note>(d)->value);
    }
    std::vector<std::pair<Tick, int>> arrivals;
};

ProtocolFactory fan_factory(int count) {
    return [count](NodeId u) -> std::unique_ptr<Protocol> {
        if (u == 0) return std::make_unique<FanOut>(count);
        return std::make_unique<Sink>();
    };
}

TEST(MultisendAblation, SerializedSendsLeaveStaggered) {
    ParallelClusterConfig cfg;
    cfg.free_multisend = false;
    ParallelCluster c(graph::make_path(2), fan_factory(4), cfg);
    c.start(0, 0);
    c.run();
    auto& sink = c.protocol_as<Sink>(1);
    ASSERT_EQ(sink.arrivals.size(), 4u);
    // Handler completes at 1; sends leave at 1, 2, 3, 4 (C=0); the sink
    // serializes processing on top: completion times 2, 3, 4, 5.
    EXPECT_EQ(sink.arrivals[0].first, 2);
    EXPECT_EQ(sink.arrivals[1].first, 3);
    EXPECT_EQ(sink.arrivals[2].first, 4);
    EXPECT_EQ(sink.arrivals[3].first, 5);
    // FIFO order of values preserved.
    for (int i = 0; i < 4; ++i) EXPECT_EQ(sink.arrivals[i].second, i);
}

TEST(MultisendAblation, FreeModeAllLeaveTogether) {
    ParallelCluster c(graph::make_path(2), fan_factory(4));
    c.start(0, 0);
    c.run();
    auto& sink = c.protocol_as<Sink>(1);
    ASSERT_EQ(sink.arrivals.size(), 4u);
    // All arrive at t=1; the sink's serial NCU spreads completions.
    EXPECT_EQ(sink.arrivals[0].first, 2);
    EXPECT_EQ(sink.arrivals[3].first, 5);
    // The *sender* worked once either way.
    EXPECT_EQ(c.merged_metrics().node(0).invocations(), 1u);
}

TEST(MultisendAblation, SerializedSenderStaysBusy) {
    // With sends serialized, a second work item at the sender must wait
    // for the send train to finish.
    ParallelClusterConfig cfg;
    cfg.free_multisend = false;
    ParallelCluster c(graph::make_path(2), fan_factory(5), cfg);
    c.start(0, 0);   // handler at 1, sends until 1 + 4*P = 5
    c.start(0, 2);   // queued behind the busy NCU
    c.run();
    // Second start processes only after the extra busy window: its
    // handler completes at 5 + P = 6 (it sends 5 more, last at 10).
    auto& sink = c.protocol_as<Sink>(1);
    ASSERT_EQ(sink.arrivals.size(), 10u);
    EXPECT_GE(sink.arrivals[5].first, 6);
    EXPECT_EQ(c.merged_metrics().node(0).busy_time, 2 + 2 * 4);  // 2 starts + 2 trains
}

TEST(MultisendAblation, SingleSendCostsNothingExtra) {
    ParallelClusterConfig cfg;
    cfg.free_multisend = false;
    ParallelCluster c(graph::make_path(2), fan_factory(1), cfg);
    c.start(0, 0);
    c.run();
    EXPECT_EQ(c.merged_metrics().node(0).busy_time, 1);
    auto& sink = c.protocol_as<Sink>(1);
    ASSERT_EQ(sink.arrivals.size(), 1u);
    EXPECT_EQ(sink.arrivals[0].first, 2);
}

}  // namespace
}  // namespace fastnet::node
