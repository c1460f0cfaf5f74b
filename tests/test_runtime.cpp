// Tests for the NCU runtime: serial processing, P accounting, timers,
// link notifications and the cluster assembly.
#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.hpp"
#include "node/parallel_cluster.hpp"

namespace fastnet::node {
namespace {

struct Note : hw::TypedPayload<Note> {
    explicit Note(int v) : value(v) {}
    int value;
};

/// Records everything that happens to it; replies when asked.
class Recorder : public Protocol {
public:
    void on_start(Context& ctx) override { start_times.push_back(ctx.now()); }
    void on_message(Context& ctx, const hw::Delivery& d) override {
        message_times.push_back(ctx.now());
        values.push_back(hw::payload_as<Note>(d) ? hw::payload_as<Note>(d)->value : -1);
        if (reply_value) ctx.reply(d, std::make_shared<Note>(*reply_value));
    }
    void on_link_state(Context& ctx, const LocalLink& l, bool up) override {
        link_events.emplace_back(ctx.now(), l.edge, up);
    }
    void on_timer(Context& ctx, std::uint64_t cookie) override {
        timer_cookies.emplace_back(ctx.now(), cookie);
    }

    std::vector<Tick> start_times;
    std::vector<Tick> message_times;
    std::vector<int> values;
    std::vector<std::tuple<Tick, EdgeId, bool>> link_events;
    std::vector<std::pair<Tick, std::uint64_t>> timer_cookies;
    std::optional<int> reply_value;
};

ProtocolFactory recorder_factory() {
    return [](NodeId) { return std::make_unique<Recorder>(); };
}

TEST(Runtime, StartCostsOneNcuDelay) {
    node::ParallelCluster c(graph::make_path(2), recorder_factory());
    c.start(0, 0);
    c.run();
    auto& r = c.protocol_as<Recorder>(0);
    ASSERT_EQ(r.start_times.size(), 1u);
    EXPECT_EQ(r.start_times[0], 1);  // P = 1: handler completes at t+P
    EXPECT_EQ(c.merged_metrics().node(0).starts, 1u);
}

/// Sends one direct message to the other node on start.
class Pinger : public Recorder {
public:
    void on_start(Context& ctx) override {
        Recorder::on_start(ctx);
        ASSERT_FALSE(ctx.links().empty());
        hw::AnrHeader h{hw::AnrLabel::normal(ctx.links()[0].port),
                        hw::AnrLabel::normal(hw::kNcuPort)};
        ctx.send(std::move(h), std::make_shared<Note>(7));
    }
};

TEST(Runtime, MessageDeliveryTimingFastModel) {
    // C=0, P=1: start processed at 1, message sent at 1, arrives at 1,
    // receiver handler completes at 2.
    node::ParallelCluster c(graph::make_path(2),
                    [](NodeId) { return std::make_unique<Pinger>(); });
    c.start(0, 0);
    c.run();
    auto& r = c.protocol_as<Recorder>(1);
    ASSERT_EQ(r.message_times.size(), 1u);
    EXPECT_EQ(r.message_times[0], 2);
    EXPECT_EQ(r.values[0], 7);
    EXPECT_EQ(c.merged_metrics().node(1).message_deliveries, 1u);
    EXPECT_EQ(c.merged_metrics().total_message_system_calls(), 1u);
    EXPECT_EQ(c.merged_metrics().total_direct_messages(), 1u);
}

TEST(Runtime, MessageDeliveryTimingWithHardwareDelay) {
    ParallelClusterConfig cfg;
    cfg.params.hop_delay = 5;  // C=5, P=1
    node::ParallelCluster c(graph::make_path(2),
                    [](NodeId) { return std::make_unique<Pinger>(); }, cfg);
    c.start(0, 0);
    c.run();
    auto& r = c.protocol_as<Recorder>(1);
    ASSERT_EQ(r.message_times.size(), 1u);
    EXPECT_EQ(r.message_times[0], 1 + 5 + 1);  // start P + hop C + receive P
}

/// Sends `count` messages to the neighbor in one system call.
class Burster : public Recorder {
public:
    explicit Burster(int count) : count_(count) {}
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

TEST(Runtime, NcuSerializesDeliveries) {
    // Five messages arrive together at t=1; the single NCU processes them
    // one per P, finishing at 2,3,4,5,6 — and in FIFO order.
    node::ParallelCluster c(graph::make_path(2), [](NodeId u) -> std::unique_ptr<Protocol> {
        if (u == 0) return std::make_unique<Burster>(5);
        return std::make_unique<Recorder>();
    });
    c.start(0, 0);
    c.run();
    auto& r = c.protocol_as<Recorder>(1);
    ASSERT_EQ(r.message_times.size(), 5u);
    EXPECT_EQ(r.message_times, (std::vector<Tick>{2, 3, 4, 5, 6}));
    EXPECT_EQ(r.values, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(c.merged_metrics().node(1).busy_time, 5);
}

TEST(Runtime, MultiSendInOneSystemCallCostsOneInvocation) {
    node::ParallelCluster c(graph::make_path(2), [](NodeId u) -> std::unique_ptr<Protocol> {
        if (u == 0) return std::make_unique<Burster>(8);
        return std::make_unique<Recorder>();
    });
    c.start(0, 0);
    c.run();
    // The model's free multicast: 8 sends, but node 0 was involved once.
    EXPECT_EQ(c.merged_metrics().node(0).invocations(), 1u);
    EXPECT_EQ(c.merged_metrics().node(0).sends, 8u);
}

/// Sends one Note along a fixed source route on start.
class RouteSender : public Recorder {
public:
    explicit RouteSender(hw::AnrHeader route) : route_(std::move(route)) {}
    void on_start(Context& ctx) override { ctx.send(route_, std::make_shared<Note>(1)); }

private:
    hw::AnrHeader route_;
};

TEST(Runtime, ReplyUsesReverseRoute) {
    const graph::Graph g = graph::make_path(3);
    const std::vector<NodeId> path{0, 1, 2};
    const hw::AnrHeader route = hw::route_for_path(path, hw::canonical_ports(g));
    node::ParallelCluster c(g, [&route](NodeId u) -> std::unique_ptr<Protocol> {
        if (u == 0) return std::make_unique<RouteSender>(route);
        auto r = std::make_unique<Recorder>();
        if (u == 2) r->reply_value = 42;
        return r;
    });
    // Node 0 sends 0->1->2.
    c.start(0, 0);
    c.run();
    auto& r0 = c.protocol_as<Recorder>(0);
    ASSERT_EQ(r0.values.size(), 1u);
    EXPECT_EQ(r0.values[0], 42);
}

class TimerUser : public Recorder {
public:
    void on_start(Context& ctx) override {
        keep_ = ctx.set_timer(10, 100);
        const TimerId doomed = ctx.set_timer(5, 200);
        ctx.cancel_timer(doomed);
    }

private:
    TimerId keep_ = 0;
};

TEST(Runtime, TimersFireAndCancel) {
    node::ParallelCluster c(graph::make_path(2),
                    [](NodeId) { return std::make_unique<TimerUser>(); });
    c.start(0, 0);
    c.run();
    auto& r = c.protocol_as<Recorder>(0);
    ASSERT_EQ(r.timer_cookies.size(), 1u);
    EXPECT_EQ(r.timer_cookies[0].second, 100u);
    EXPECT_EQ(r.timer_cookies[0].first, 1 + 10 + 1);  // set at 1, fires 11, P=1
    EXPECT_EQ(c.merged_metrics().node(0).timer_fires, 1u);
}

TEST(Runtime, LinkStateChangeInvokesHandlerOnBothEndpoints) {
    node::ParallelCluster c(graph::make_path(3), recorder_factory());
    c.fail_link(5, 0);
    c.run();
    auto& r0 = c.protocol_as<Recorder>(0);
    auto& r1 = c.protocol_as<Recorder>(1);
    auto& r2 = c.protocol_as<Recorder>(2);
    ASSERT_EQ(r0.link_events.size(), 1u);
    ASSERT_EQ(r1.link_events.size(), 1u);
    EXPECT_TRUE(r2.link_events.empty());
    EXPECT_FALSE(std::get<2>(r0.link_events[0]));
    EXPECT_EQ(c.merged_metrics().node(0).link_events, 1u);
}

TEST(Runtime, LocalLinkViewTracksActivity) {
    node::ParallelCluster c(graph::make_path(2), recorder_factory());
    c.fail_link(1, 0);
    c.run();
    // After processing the notification the protocol's view is updated.
    struct Probe : Protocol {};
    // Inspect through a fresh handler call: check the runtime's view via
    // the recorded link event plus links() seen in a later timer.
    auto& r = c.protocol_as<Recorder>(0);
    ASSERT_EQ(r.link_events.size(), 1u);
}

TEST(Runtime, NcuDelayJitterStaysWithinBounds) {
    ParallelClusterConfig cfg;
    cfg.params.ncu_delay = 9;
    cfg.ncu_delay_min = 3;
    cfg.seed = 17;
    node::ParallelCluster c(graph::make_path(2),
                    [](NodeId) { return std::make_unique<Pinger>(); }, cfg);
    c.start(0, 0);
    c.run();
    auto& r = c.protocol_as<Recorder>(1);
    ASSERT_EQ(r.message_times.size(), 1u);
    // start P in [3,9], hop 0, receive P in [3,9].
    EXPECT_GE(r.message_times[0], 6);
    EXPECT_LE(r.message_times[0], 18);
}

TEST(Cluster, QuiescentAfterRun) {
    node::ParallelCluster c(graph::make_path(3), recorder_factory());
    c.start_all(0);
    EXPECT_FALSE(c.quiescent());
    c.run();
    EXPECT_TRUE(c.quiescent());
}

TEST(Cluster, DeterministicAcrossIdenticalRuns) {
    auto run_once = [] {
        ParallelClusterConfig cfg;
        cfg.seed = 99;
        node::ParallelCluster c(graph::make_complete(5), [](NodeId u) -> std::unique_ptr<Protocol> {
            if (u == 0) return std::make_unique<Burster>(4);
            return std::make_unique<Recorder>();
        }, cfg);
        c.start_all(0);
        c.run();
        return c.merged_metrics().total_invocations();
    };
    EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace fastnet::node
