// fastnet — umbrella header.
//
// A C++20 reproduction of Cidon, Gopal & Kutten, "New Models and
// Algorithms for Future Networks" (PODC 1988): the switching-subsystem /
// NCU node model with ANR source routing and selective copy, the
// system-call cost measure, and the paper's three algorithm suites
// (topology maintenance, leader election, globally sensitive functions)
// with their baselines, all running on a deterministic discrete-event
// simulator.
//
// Layering (each header is independently includable):
//   common/  — ids, contracts, deterministic RNG
//   graph/   — graphs, generators, BFS/trees
//   sim/     — event queue and clock
//   hw/      — packets, ANR headers, switches, links, the network fabric
//   node/    — NCU runtime, protocol API, cluster assembly
//   cost/    — the paper's cost measures
//   obs/     — exporters, live invariant monitors, theorem-bound audits
//   exec/    — multi-core sweep engine (deterministic parallel experiments)
//   fault/   — crash-recovery fault injection + convergence oracle
//   topo/    — Section 3: labelling, branching-paths broadcast,
//              topology maintenance, the Omega(log n) lower bound
//   election/— Section 4: domains/tours election + ring baselines
//   gsf/     — Section 5: S(t) recursion, OT(t) trees, tree gather
//   util/    — table formatting for benches/examples
#pragma once

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "cost/metrics.hpp"
#include "election/election.hpp"
#include "exec/result.hpp"
#include "exec/sweep_runner.hpp"
#include "exec/thread_pool.hpp"
#include "election/inout_tree.hpp"
#include "fault/call_oracle.hpp"
#include "fault/injector.hpp"
#include "fault/oracle.hpp"
#include "election/ring_election.hpp"
#include "graph/algorithms.hpp"
#include "graph/dot.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "graph/rooted_tree.hpp"
#include "gsf/gather.hpp"
#include "gsf/opt_tree.hpp"
#include "gsf/schedule.hpp"
#include "hw/anr.hpp"
#include "hw/link.hpp"
#include "hw/network.hpp"
#include "hw/packet.hpp"
#include "hw/switch.hpp"
#include "node/parallel_cluster.hpp"
#include "node/protocol.hpp"
#include "obs/audit.hpp"
#include "obs/json.hpp"
#include "obs/metrics_export.hpp"
#include "obs/monitor.hpp"
#include "obs/trace_export.hpp"
#include "obs/trace_query.hpp"
#include "node/runtime.hpp"
#include "node/scenario.hpp"
#include "paris/call_setup.hpp"
#include "paris/workload.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "topo/broadcast_plan.hpp"
#include "topo/broadcast_protocols.hpp"
#include "topo/labeling.hpp"
#include "topo/lower_bound.hpp"
#include "topo/paths.hpp"
#include "topo/router.hpp"
#include "topo/topology_maintenance.hpp"
#include "util/table.hpp"
