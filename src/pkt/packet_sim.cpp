#include "pkt/packet_sim.h"

#include <algorithm>
#include <cassert>
#include <deque>

namespace astral::pkt {

using core::Bytes;
using core::Seconds;

struct PacketSim::Packet {
  std::uint32_t flow = 0;
  Bytes size = 0;
  std::uint16_t hop = 0;  ///< Index into the flow's path.
  bool ecn_marked = false;
  bool last = false;
};

struct PacketSim::Port {
  std::deque<Packet> q;
  Bytes queued = 0;
  bool busy = false;
  int pause_refs = 0;       ///< >0: a downstream ingress asserted PFC.
  bool xoff_asserted = false;  ///< This queue has paused its upstreams.

  bool paused() const { return pause_refs > 0; }
};

struct PacketSim::Flow {
  PktFlowState st;
  Bytes to_send = 0;
  Seconds last_cut = -1e18;
  bool done_sending = false;
};

PacketSim::PacketSim(topo::Fabric& fabric, PacketSimConfig cfg)
    : fabric_(fabric), router_(fabric), cfg_(cfg), rng_(cfg.seed) {
  ports_.resize(fabric_.topo().link_count());
}

PacketSim::~PacketSim() = default;

Seconds PacketSim::now() const { return queue_.now(); }

const PktFlowState& PacketSim::flow(net::FlowId id) const { return flows_[id].st; }

std::size_t PacketSim::flow_count() const { return flows_.size(); }

Bytes PacketSim::queue_depth(topo::LinkId link) const { return ports_[link].queued; }

net::FlowId PacketSim::inject(const net::FlowSpec& spec) {
  Flow f;
  f.st.spec = spec;
  f.st.tuple = router_.tuple_for(spec);
  f.to_send = spec.size;
  auto path = router_.route(spec, f.st.tuple);
  if (path) {
    f.st.path = std::move(*path);
    f.st.admitted = true;
    // DCQCN sources start at line rate (the first link is the NIC port).
    f.st.rate = fabric_.topo().link(f.st.path.front()).capacity;
  } else {
    f.st.finish = spec.start;
  }
  auto id = static_cast<net::FlowId>(flows_.size());
  flows_.push_back(std::move(f));
  if (flows_.back().st.admitted) {
    ++active_flows_;
    queue_.schedule_at(spec.start, [this, id] { pace_next_packet(id); });
    queue_.schedule_at(spec.start + cfg_.increase_interval,
                       [this, id] { schedule_increase(id); });
  }
  return id;
}

void PacketSim::pace_next_packet(std::size_t flow_idx) {
  Flow& f = flows_[flow_idx];
  if (f.to_send == 0) {
    f.done_sending = true;
    return;
  }
  std::size_t first_port = f.st.path.front();
  Packet pkt;
  pkt.flow = static_cast<std::uint32_t>(flow_idx);
  pkt.size = std::min<Bytes>(cfg_.mtu, f.to_send);
  pkt.hop = 0;
  pkt.last = pkt.size == f.to_send;
  // Host-side backpressure: a full NIC queue delays the source instead
  // of dropping.
  if (ports_[first_port].queued + pkt.size > cfg_.queue_capacity) {
    queue_.schedule_in(core::transfer_time(pkt.size, f.st.rate),
                       [this, flow_idx] { pace_next_packet(flow_idx); });
    return;
  }
  f.to_send -= pkt.size;
  ++stats_.packets_sent;
  enqueue(first_port, pkt);
  Seconds gap = core::transfer_time(pkt.size, f.st.rate);
  queue_.schedule_in(gap, [this, flow_idx] { pace_next_packet(flow_idx); });
}

void PacketSim::enqueue(std::size_t port_idx, Packet pkt) {
  Port& port = ports_[port_idx];
  if (port.queued + pkt.size > cfg_.queue_capacity) {
    ++stats_.packets_dropped;  // PFC normally prevents this.
    return;
  }
  // RED-on-ECN marking ramp.
  if (port.queued > cfg_.ecn_kmin) {
    double frac = static_cast<double>(port.queued - cfg_.ecn_kmin) /
                  static_cast<double>(std::max<Bytes>(1, cfg_.ecn_kmax - cfg_.ecn_kmin));
    double p = std::min(1.0, frac) * cfg_.ecn_pmax;
    if (rng_.chance(p)) {
      pkt.ecn_marked = true;
      ++stats_.ecn_marks;
    }
  }
  port.q.push_back(pkt);
  port.queued += pkt.size;
  update_pfc(port_idx);
  start_transmit(port_idx);
}

void PacketSim::start_transmit(std::size_t port_idx) {
  Port& port = ports_[port_idx];
  if (port.busy || port.paused() || port.q.empty()) return;
  const auto& link = fabric_.topo().link(static_cast<topo::LinkId>(port_idx));
  if (!link.up || link.capacity <= 0) return;  // dead link blackholes
  port.busy = true;
  Seconds tx = core::transfer_time(port.q.front().size, link.capacity);
  queue_.schedule_in(tx, [this, port_idx] { finish_transmit(port_idx); });
}

void PacketSim::finish_transmit(std::size_t port_idx) {
  Port& port = ports_[port_idx];
  Packet pkt = port.q.front();
  port.q.pop_front();
  port.queued -= pkt.size;
  port.busy = false;
  update_pfc(port_idx);

  const Flow& f = flows_[pkt.flow];
  bool last_hop = static_cast<std::size_t>(pkt.hop) + 1 >= f.st.path.size();
  if (last_hop) {
    queue_.schedule_in(cfg_.hop_latency, [this, pkt] { deliver(pkt); });
  } else {
    Packet next = pkt;
    next.hop = static_cast<std::uint16_t>(pkt.hop + 1);
    std::size_t next_port = f.st.path[next.hop];
    queue_.schedule_in(cfg_.hop_latency,
                       [this, next_port, next] { enqueue(next_port, next); });
  }
  start_transmit(port_idx);
}

void PacketSim::deliver(const Packet& pkt) {
  Flow& f = flows_[pkt.flow];
  f.st.delivered += pkt.size;
  ++stats_.packets_delivered;
  if (pkt.ecn_marked) {
    // CNP travels back to the source after the reverse-path latency.
    Seconds rtt_back = cfg_.hop_latency * static_cast<double>(f.st.path.size());
    std::size_t idx = pkt.flow;
    queue_.schedule_in(rtt_back, [this, idx] { notify_congestion(idx); });
  }
  if (f.st.delivered >= f.st.spec.size && f.st.finish < 0) {
    f.st.finish = now();
    --active_flows_;
  }
}

void PacketSim::notify_congestion(std::size_t flow_idx) {
  Flow& f = flows_[flow_idx];
  ++f.st.ecn_feedback;
  if (f.st.finish >= 0) return;
  if (now() - f.last_cut < cfg_.cnp_min_interval) return;  // one cut per window
  f.last_cut = now();
  double line = fabric_.topo().link(f.st.path.front()).capacity;
  f.st.rate = std::max(line * cfg_.min_rate_fraction, f.st.rate * cfg_.rate_decrease);
}

void PacketSim::schedule_increase(std::size_t flow_idx) {
  Flow& f = flows_[flow_idx];
  if (f.st.finish >= 0 || f.done_sending) return;  // timer dies with the flow
  double line = fabric_.topo().link(f.st.path.front()).capacity;
  f.st.rate = std::min(line, f.st.rate + cfg_.increase_fraction * line);
  queue_.schedule_in(cfg_.increase_interval, [this, flow_idx] { schedule_increase(flow_idx); });
}

void PacketSim::update_pfc(std::size_t port_idx) {
  Port& port = ports_[port_idx];
  const auto& topo = fabric_.topo();
  topo::NodeId node = topo.link(static_cast<topo::LinkId>(port_idx)).src;
  // A host NIC queue exerts host backpressure (pace_next_packet), not PFC.
  if (topo.node(node).kind == topo::NodeKind::Host) return;

  if (!port.xoff_asserted && port.queued > cfg_.pfc_xoff) {
    port.xoff_asserted = true;
    ++stats_.pfc_pause_events;
    for (topo::LinkId up : topo.in_links(node)) ++ports_[up].pause_refs;
  } else if (port.xoff_asserted && port.queued < cfg_.pfc_xon) {
    port.xoff_asserted = false;
    ++stats_.pfc_resume_events;
    for (topo::LinkId up : topo.in_links(node)) {
      Port& upstream = ports_[up];
      if (--upstream.pause_refs == 0) start_transmit(up);
    }
  }
}

void PacketSim::run(core::Seconds until) { queue_.run(until); }

}  // namespace astral::pkt
