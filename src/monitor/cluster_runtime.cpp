#include "monitor/cluster_runtime.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "parallel/placement.h"

namespace astral::monitor {

ClusterRuntime::ClusterRuntime(topo::Fabric& fabric, JobConfig cfg,
                               std::uint64_t seed)
    : fabric_(fabric) {
  sim_ = std::make_unique<net::FluidSim>(fabric_);
  std::vector<int> placed =
      parallel::place_hosts(fabric_, cfg.hosts, parallel::HostPolicy::InOrder);
  if (placed.empty()) {
    throw std::invalid_argument("ClusterRuntime: cannot fit " +
                                std::to_string(cfg.hosts) +
                                " hosts on this fabric");
  }
  std::vector<topo::NodeId> hosts;
  hosts.reserve(placed.size());
  for (int h : placed) {
    hosts.push_back(fabric_.topo().hosts()[static_cast<std::size_t>(h)]);
  }
  engine_ = std::make_unique<JobEngine>(fabric_, *sim_, std::move(cfg), seed,
                                        std::move(hosts));
}

void ClusterRuntime::set_tracer(obs::Tracer* tracer) {
  engine_->set_tracer(tracer);
  sim_->set_tracer(tracer);
}

void ClusterRuntime::set_stream_analyzer(StreamAnalyzer* stream) {
  engine_->set_stream_analyzer(stream);
}

void ClusterRuntime::set_metrics(obs::Metrics* metrics) {
  engine_->set_metrics(metrics);
  sim_->set_metrics(metrics);
}

RunOutcome ClusterRuntime::run() {
  engine_->start();
  while (!engine_->done()) engine_->resume();
  RunOutcome out = engine_->outcome();
  // Held-back (reordered) collector batches land after the run ends.
  engine_->flush_telemetry();
  // Undo fabric-level link state so a shared fabric (campaigns run many
  // jobs over one topology) starts the next job repaired.
  engine_->restore_downed_links();
  return out;
}

}  // namespace astral::monitor
