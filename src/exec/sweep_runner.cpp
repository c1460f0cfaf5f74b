#include "exec/sweep_runner.hpp"

namespace fastnet::exec {

std::size_t SweepRunner::add(ClusterCase c) {
    FASTNET_EXPECTS(c.protocol != nullptr);
    cases_.push_back(std::move(c));
    return cases_.size() - 1;
}

std::vector<CaseResult> SweepRunner::run() {
    return sweep_map(
        cases_,
        [](const ClusterCase& c, TaskContext& ctx) {
            node::ParallelClusterConfig cfg = c.config;
            if (c.derive_seed) cfg.seed = ctx.rng.next();
            node::ParallelCluster cluster(c.graph, c.protocol, cfg);
            cluster.schedule(c.scenario);
            if (c.start_all) cluster.start_all(c.start_at);
            const Tick done = cluster.run();
            const cost::Metrics m = cluster.merged_metrics();

            CaseResult r;
            r.name = c.name;
            r.index = ctx.index;
            r.completion = done;
            r.system_calls = m.total_message_system_calls();
            r.direct_messages = m.total_direct_messages();
            r.hops = m.net().hops;
            if (cluster.monitor_count() > 0) {
                r.set("monitor_violations", static_cast<double>(cluster.violation_count()));
                r.ok = r.ok && cluster.monitors_ok();
            }
            if (c.probe) c.probe(cluster, m, r);
            return r;
        },
        opt_);
}

}  // namespace fastnet::exec
