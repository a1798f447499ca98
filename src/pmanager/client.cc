#include "pmanager/client.h"

#include "rpc/call.h"

namespace blobseer::pmanager {

ProviderManagerClient::ProviderManagerClient(rpc::Transport* transport,
                                             std::string address,
                                             size_t channels)
    : transport_(transport),
      address_(std::move(address)),
      pool_(transport_, channels) {}

// Every call reconnects once on Unavailable (rpc::CallWithReconnect*).
// Register, Heartbeat, ReportLocations and Directory are idempotent; a
// duplicated Allocate can over-charge allocated_pages transiently, which
// the next heartbeat's stored-page count corrects.
template <typename Req, typename Rsp>
Status ProviderManagerClient::Call(rpc::Method method, const Req& req,
                                   Rsp* rsp) {
  return rpc::CallWithReconnect(&pool_, address_, method, req, rsp);
}

template <typename Req, typename Rsp>
Future<Rsp> ProviderManagerClient::CallAsync(rpc::Method method, Req req) {
  return rpc::CallWithReconnectAsync<Req, Rsp>(&pool_, address_, method,
                                               std::move(req));
}

Result<ProviderId> ProviderManagerClient::Register(
    const std::string& provider_address, uint64_t capacity_pages) {
  RegisterRequest req{provider_address, capacity_pages};
  RegisterResponse rsp;
  BS_RETURN_NOT_OK(Call(rpc::Method::kPmRegister, req, &rsp));
  return rsp.id;
}

Status ProviderManagerClient::Heartbeat(ProviderId id, uint64_t pages,
                                        uint64_t bytes) {
  HeartbeatRequest req{id, pages, bytes};
  HeartbeatResponse rsp;
  return Call(rpc::Method::kPmHeartbeat, req, &rsp);
}

Future<Unit> ProviderManagerClient::ReportLocationsAsync(
    ReportLocationsRequest req) {
  return CallAsync<ReportLocationsRequest, ReportLocationsResponse>(
             rpc::Method::kPmReportLocations, std::move(req))
      .Then([](Result<ReportLocationsResponse> r) -> Status {
        return r.status();
      });
}

Result<DecommissionResponse> ProviderManagerClient::Decommission(
    ProviderId id) {
  DecommissionRequest req{id};
  DecommissionResponse rsp;
  BS_RETURN_NOT_OK(Call(rpc::Method::kPmDecommission, req, &rsp));
  return rsp;
}

Future<std::vector<std::vector<ProviderId>>>
ProviderManagerClient::AllocateReplicatedAsync(uint32_t num_pages,
                                               uint32_t replication) {
  return CallAsync<AllocateRequest, AllocateResponse>(
             rpc::Method::kPmAllocate, AllocateRequest{num_pages, replication})
      .Then([](Result<AllocateResponse> rsp)
                -> Result<std::vector<std::vector<ProviderId>>> {
        if (!rsp.ok()) return rsp.status();
        return std::move(rsp->replicas);
      });
}

Result<std::string> ProviderManagerClient::CachedAddress(ProviderId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = directory_.find(id);
  if (it == directory_.end())
    return Status::NotFound("provider id " + std::to_string(id));
  return it->second;
}

Future<std::string> ProviderManagerClient::ResolveAddressAsync(ProviderId id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = directory_.find(id);
  if (it != directory_.end()) return MakeReadyFuture<std::string>(it->second);
  Promise<std::string> waiter;
  Future<std::string> out = waiter.GetFuture();
  dir_waiters_.emplace_back(id, std::move(waiter));
  if (dir_waiters_.size() > 1) return out;  // joins the in-flight fetch
  lock.unlock();
  CallAsync<DirectoryRequest, DirectoryResponse>(rpc::Method::kPmDirectory,
                                                 DirectoryRequest{})
      .OnReady(nullptr, [this](Result<DirectoryResponse> rsp) {
        FinishDirectoryFetch(std::move(rsp));
      });
  return out;
}

void ProviderManagerClient::FinishDirectoryFetch(
    Result<DirectoryResponse> rsp) {
  std::vector<std::pair<ProviderId, Promise<std::string>>> waiters;
  {
    std::lock_guard<std::mutex> lock(mu_);
    waiters.swap(dir_waiters_);
    if (rsp.ok()) {
      for (const auto& e : rsp->entries) directory_[e.id] = e.address;
    }
  }
  // Outside mu_: a waiter's continuation may resolve another address.
  for (auto& [id, waiter] : waiters)
    waiter.Set(rsp.ok() ? CachedAddress(id)
                        : Result<std::string>(rsp.status()));
}

Result<PmStatsResponse> ProviderManagerClient::FetchStats() {
  PmStatsRequest req;
  PmStatsResponse rsp;
  BS_RETURN_NOT_OK(Call(rpc::Method::kPmStats, req, &rsp));
  return rsp;
}

Result<std::vector<DirectoryEntry>> ProviderManagerClient::FetchDirectory() {
  DirectoryRequest req;
  DirectoryResponse rsp;
  BS_RETURN_NOT_OK(Call(rpc::Method::kPmDirectory, req, &rsp));
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& e : rsp.entries) directory_[e.id] = e.address;
  return std::move(rsp.entries);
}

}  // namespace blobseer::pmanager
