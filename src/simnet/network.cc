#include "simnet/network.h"

#include <algorithm>

#include "common/logging.h"

namespace blobseer::simnet {

SimNetwork::SimNetwork(SimScheduler* sched, size_t num_nodes,
                       SimNetworkOptions options)
    : sched_(sched), options_(options), nodes_(num_nodes) {}

SimNetwork::~SimNetwork() = default;

double SimNetwork::EndpointRate(const Flow& f) const {
  const Node& s = nodes_[f.src];
  const Node& d = nodes_[f.dst];
  double up = options_.nic_bytes_per_sec /
              static_cast<double>(s.out_flows.size());
  double down = options_.nic_bytes_per_sec /
                static_cast<double>(d.in_flows.size());
  return std::min(up, down);
}

void SimNetwork::AttachFlow(Flow* f) {
  nodes_[f->src].out_flows.push_back(f);
  nodes_[f->dst].in_flows.push_back(f);
  flows_.push_back(f);
}

void SimNetwork::DetachFlow(Flow* f) {
  auto erase_from = [f](std::vector<Flow*>& v) {
    v.erase(std::remove(v.begin(), v.end(), f), v.end());
  };
  erase_from(nodes_[f->src].out_flows);
  erase_from(nodes_[f->dst].in_flows);
  flows_.remove(f);
}

void SimNetwork::RecomputeEndpoint(uint32_t src, uint32_t dst) {
  // Only flows sharing an endpoint with the changed flow can change rate.
  auto refresh = [this](Flow* f) {
    double r = EndpointRate(*f);
    if (r != f->rate) {
      f->rate = r;
      f->rate_changed->NotifyAll();
    }
  };
  for (Flow* f : nodes_[src].out_flows) refresh(f);
  for (Flow* f : nodes_[src].in_flows) refresh(f);
  if (dst != src) {
    for (Flow* f : nodes_[dst].out_flows) refresh(f);
    for (Flow* f : nodes_[dst].in_flows) refresh(f);
  }
}

void SimNetwork::RecomputeMaxMin() {
  // Progressive filling over per-direction node links.
  struct LinkState {
    double cap = 0;
    std::vector<Flow*> unfixed;
  };
  std::vector<LinkState> links(nodes_.size() * 2);  // [2n]=up, [2n+1]=down
  for (LinkState& l : links) l.cap = options_.nic_bytes_per_sec;
  for (Flow* f : flows_) {
    links[2 * f->src].unfixed.push_back(f);
    links[2 * f->dst + 1].unfixed.push_back(f);
  }
  std::vector<double> new_rate;
  std::vector<Flow*> order(flows_.begin(), flows_.end());
  std::vector<char> fixed(order.size(), 0);
  auto index_of = [&](Flow* f) {
    return std::distance(order.begin(),
                         std::find(order.begin(), order.end(), f));
  };
  new_rate.assign(order.size(), 0.0);

  size_t remaining = order.size();
  while (remaining > 0) {
    // Find the bottleneck link: smallest fair share among links with
    // unfixed flows.
    double best_share = 0;
    LinkState* best = nullptr;
    for (LinkState& l : links) {
      size_t n_unfixed = 0;
      for (Flow* f : l.unfixed)
        if (!fixed[index_of(f)]) n_unfixed++;
      if (n_unfixed == 0) continue;
      double share = l.cap / static_cast<double>(n_unfixed);
      if (!best || share < best_share) {
        best = &l;
        best_share = share;
      }
    }
    if (!best) break;
    for (Flow* f : best->unfixed) {
      size_t i = index_of(f);
      if (fixed[i]) continue;
      fixed[i] = 1;
      new_rate[i] = best_share;
      remaining--;
      // Consume capacity on the flow's other link.
      links[2 * f->src].cap = std::max(0.0, links[2 * f->src].cap - best_share);
      links[2 * f->dst + 1].cap =
          std::max(0.0, links[2 * f->dst + 1].cap - best_share);
    }
    best->cap = 0;
  }
  for (size_t i = 0; i < order.size(); i++) {
    if (order[i]->rate != new_rate[i]) {
      order[i]->rate = new_rate[i];
      order[i]->rate_changed->NotifyAll();
    }
  }
}

void SimNetwork::Transfer(uint32_t src, uint32_t dst, uint64_t bytes) {
  BS_CHECK(src < nodes_.size() && dst < nodes_.size()) << "bad node id";
  if (options_.latency_us > 0) sched_->SleepFor(options_.latency_us);
  if (bytes == 0 || (src == dst && options_.loopback_bypass)) return;

  Flow flow;
  flow.src = src;
  flow.dst = dst;
  flow.remaining = static_cast<double>(bytes);
  flow.rate_changed = std::make_unique<SimCondition>(sched_);
  AttachFlow(&flow);
  if (options_.sharing == SimNetworkOptions::Sharing::kMaxMin) {
    RecomputeMaxMin();
  } else {
    RecomputeEndpoint(src, dst);
  }

  while (flow.remaining > 1e-6) {
    // Rates are bytes/second; the virtual clock ticks in microseconds.
    double rate_per_us = flow.rate / 1e6;
    BS_CHECK(rate_per_us > 0) << "flow with zero rate";
    double t0 = sched_->Now();
    double eta = t0 + flow.remaining / rate_per_us;
    bool rate_changed = flow.rate_changed->WaitUntil(eta);
    double elapsed = sched_->Now() - t0;
    flow.remaining -= elapsed * rate_per_us;
    if (!rate_changed) break;  // deadline: transfer complete
  }

  DetachFlow(&flow);
  if (options_.sharing == SimNetworkOptions::Sharing::kMaxMin) {
    RecomputeMaxMin();
  } else {
    RecomputeEndpoint(src, dst);
  }
}

}  // namespace blobseer::simnet
