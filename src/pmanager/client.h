// Typed client for the provider manager.
#ifndef BLOBSEER_PMANAGER_CLIENT_H_
#define BLOBSEER_PMANAGER_CLIENT_H_

#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/future.h"
#include "common/result.h"
#include "pmanager/messages.h"
#include "rpc/channel_pool.h"

namespace blobseer::pmanager {

class ProviderManagerClient {
 public:
  ProviderManagerClient(rpc::Transport* transport, std::string address,
                        size_t channels = 2);

  Result<ProviderId> Register(const std::string& provider_address,
                              uint64_t capacity_pages);
  Status Heartbeat(ProviderId id, uint64_t pages, uint64_t bytes);

  /// Asks for a replica set of `replication` distinct providers per page
  /// (primary first). Fails with Unavailable when fewer live providers than
  /// `replication` are registered. This is the only allocation surface —
  /// unreplicated callers pass replication = 1.
  Future<std::vector<std::vector<ProviderId>>> AllocateReplicatedAsync(
      uint32_t num_pages, uint32_t replication);

  /// Feeds the provider manager's location table (best-effort: the DHT
  /// entries remain authoritative, this view only drives rebuilds).
  Future<Unit> ReportLocationsAsync(ReportLocationsRequest req);

  /// Marks a provider draining and reports how many pages still reference
  /// it. Poll until `drained` before retiring the process.
  Result<DecommissionResponse> Decommission(ProviderId id);

  /// Forces a directory refresh and returns it.
  Result<std::vector<DirectoryEntry>> FetchDirectory();

  /// Registry statistics, including the failure detector's current
  /// alive/suspect/dead counts and the location-table health counters
  /// (tools, tests and churn harnesses).
  Result<PmStatsResponse> FetchStats();

  /// Resolves a provider id to its endpoint address; a directory cache hit
  /// resolves immediately. Concurrent misses share one in-flight directory
  /// fetch; a failed fetch fails all of them, and the next miss fetches
  /// again.
  Future<std::string> ResolveAddressAsync(ProviderId id);

 private:
  template <typename Req, typename Rsp>
  Status Call(rpc::Method method, const Req& req, Rsp* rsp);
  template <typename Req, typename Rsp>
  Future<Rsp> CallAsync(rpc::Method method, Req req);

  Result<std::string> CachedAddress(ProviderId id);
  /// Completes every waiter of the in-flight directory fetch.
  void FinishDirectoryFetch(Result<DirectoryResponse> rsp);

  rpc::Transport* transport_;
  std::string address_;
  rpc::ChannelPool pool_;
  std::mutex mu_;
  std::map<ProviderId, std::string> directory_;
  /// Misses waiting on the one in-flight kPmDirectory fetch (guarded by
  /// mu_); a fetch is in flight exactly while this is non-empty.
  std::vector<std::pair<ProviderId, Promise<std::string>>> dir_waiters_;
};

}  // namespace blobseer::pmanager

#endif  // BLOBSEER_PMANAGER_CLIENT_H_
