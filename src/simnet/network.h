// Flow-level network model over the virtual-time scheduler.
//
// Every node has a full-duplex NIC (independent up/down capacities — the
// Grid'5000 profile is 117.5 MB/s measured TCP on 1 Gbit/s links, 0.1 ms
// latency). A transfer is a fluid flow; its rate is recomputed when flows
// start or finish. Two sharing models:
//
//  * kEndpointShare (default): rate = min(up_cap/src_out_flows,
//    down_cap/dst_in_flows). O(endpoint degree) per event; no
//    redistribution of unused shares. Accurate for the symmetric workloads
//    of the paper's evaluation and cheap enough for 175-node runs.
//  * kMaxMin: exact progressive-filling max-min fairness. O(nodes * flows)
//    per event; used in validation tests and small scenarios.
#ifndef BLOBSEER_SIMNET_NETWORK_H_
#define BLOBSEER_SIMNET_NETWORK_H_

#include <cstdint>
#include <list>
#include <memory>
#include <vector>

#include "simnet/sim.h"

namespace blobseer::simnet {

struct SimNetworkOptions {
  double nic_bytes_per_sec = 117.5e6;  ///< per direction, per node
  double latency_us = 100.0;           ///< one-way propagation
  enum class Sharing { kEndpointShare, kMaxMin };
  Sharing sharing = Sharing::kEndpointShare;
  /// Node-local (src == dst) transfers skip the NIC and cost latency only.
  bool loopback_bypass = true;
};

class SimNetwork {
 public:
  SimNetwork(SimScheduler* sched, size_t num_nodes,
             SimNetworkOptions options = {});
  ~SimNetwork();

  /// Moves `bytes` from node `src` to node `dst` in virtual time, blocking
  /// the calling sim task for latency + serialization under fair sharing.
  void Transfer(uint32_t src, uint32_t dst, uint64_t bytes);

  /// Rescales the base one-way latency at runtime — campaign scripts
  /// degrade or restore the whole fabric mid-run (WAN episodes, congested
  /// periods). Applies to transfers started after the call.
  void set_latency_us(double us) { options_.latency_us = us; }
  double latency_us() const { return options_.latency_us; }

  size_t num_nodes() const { return nodes_.size(); }

 private:
  struct Flow {
    uint32_t src = 0;
    uint32_t dst = 0;
    double remaining = 0;
    double rate = 0;
    std::unique_ptr<SimCondition> rate_changed;
  };
  struct Node {
    std::vector<Flow*> out_flows;
    std::vector<Flow*> in_flows;
  };

  void AttachFlow(Flow* f);
  void DetachFlow(Flow* f);
  /// Endpoint-share: refresh rates of all flows touching src/dst.
  void RecomputeEndpoint(uint32_t src, uint32_t dst);
  /// Max-min: refresh all flow rates by progressive filling.
  void RecomputeMaxMin();
  double EndpointRate(const Flow& f) const;

  SimScheduler* sched_;
  SimNetworkOptions options_;
  std::vector<Node> nodes_;
  std::list<Flow*> flows_;
};

}  // namespace blobseer::simnet

#endif  // BLOBSEER_SIMNET_NETWORK_H_
