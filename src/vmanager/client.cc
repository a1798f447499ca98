#include "vmanager/client.h"

#include "rpc/call.h"
#include "vmanager/messages.h"

namespace blobseer::vmanager {

VersionManagerClient::VersionManagerClient(rpc::Transport* transport,
                                           std::string address,
                                           size_t channels)
    : address_(std::move(address)), pool_(transport, channels) {}

Result<rpc::Channel*> VersionManagerClient::Chan() {
  auto ch = pool_.Get(address_);
  if (!ch.ok()) return ch.status();
  return ch->get();
}

Future<BlobDescriptor> VersionManagerClient::CreateBlobAsync(uint64_t psize) {
  auto ch = Chan();
  if (!ch.ok()) return MakeReadyFuture<BlobDescriptor>(ch.status());
  return rpc::CallMethodAsync<CreateBlobRequest, CreateBlobResponse>(
             *ch, rpc::Method::kVmCreateBlob, CreateBlobRequest{psize})
      .Then([](Result<CreateBlobResponse> rsp) -> Result<BlobDescriptor> {
        if (!rsp.ok()) return rsp.status();
        return std::move(rsp->descriptor);
      });
}

Future<OpenInfo> VersionManagerClient::OpenBlobAsync(BlobId id) {
  auto ch = Chan();
  if (!ch.ok()) return MakeReadyFuture<OpenInfo>(ch.status());
  return rpc::CallMethodAsync<OpenBlobRequest, OpenBlobResponse>(
             *ch, rpc::Method::kVmOpenBlob, OpenBlobRequest{id})
      .Then([](Result<OpenBlobResponse> rsp) -> Result<OpenInfo> {
        if (!rsp.ok()) return rsp.status();
        return OpenInfo{std::move(rsp->descriptor), rsp->published,
                        rsp->published_size};
      });
}

Future<AssignTicket> VersionManagerClient::AssignVersionAsync(BlobId id,
                                                              bool is_append,
                                                              uint64_t offset,
                                                              uint64_t size) {
  auto ch = Chan();
  if (!ch.ok()) return MakeReadyFuture<AssignTicket>(ch.status());
  return rpc::CallMethodAsync<AssignRequest, AssignResponse>(
             *ch, rpc::Method::kVmAssignVersion,
             AssignRequest{id, is_append, offset, size})
      .Then([](Result<AssignResponse> rsp) -> Result<AssignTicket> {
        if (!rsp.ok()) return rsp.status();
        return std::move(rsp->ticket);
      });
}

Future<Unit> VersionManagerClient::NotifySuccessAsync(BlobId id,
                                                      Version version) {
  auto ch = Chan();
  if (!ch.ok()) return MakeReadyFuture(ch.status());
  return rpc::CallMethodAsync<NotifyRequest, NotifyResponse>(
             *ch, rpc::Method::kVmNotifySuccess, NotifyRequest{id, version})
      .Then([](Result<NotifyResponse> rsp) { return rsp.status(); });
}

Future<AbortOutcome> VersionManagerClient::AbortUpdateAsync(BlobId id,
                                                            Version version) {
  auto ch = Chan();
  if (!ch.ok()) return MakeReadyFuture<AbortOutcome>(ch.status());
  return rpc::CallMethodAsync<AbortRequest, AbortResponse>(
             *ch, rpc::Method::kVmAbortUpdate, AbortRequest{id, version})
      .Then([](Result<AbortResponse> rsp) -> Result<AbortOutcome> {
        if (!rsp.ok()) return rsp.status();
        return std::move(rsp->outcome);
      });
}

Future<RecentVersion> VersionManagerClient::GetRecentAsync(BlobId id) {
  auto ch = Chan();
  if (!ch.ok()) return MakeReadyFuture<RecentVersion>(ch.status());
  return rpc::CallMethodAsync<GetRecentRequest, GetRecentResponse>(
             *ch, rpc::Method::kVmGetRecent, GetRecentRequest{id})
      .Then([](Result<GetRecentResponse> rsp) -> Result<RecentVersion> {
        if (!rsp.ok()) return rsp.status();
        return RecentVersion{rsp->version, rsp->size};
      });
}

Future<uint64_t> VersionManagerClient::GetSizeAsync(BlobId id,
                                                    Version version) {
  auto ch = Chan();
  if (!ch.ok()) return MakeReadyFuture<uint64_t>(ch.status());
  return rpc::CallMethodAsync<GetSizeRequest, GetSizeResponse>(
             *ch, rpc::Method::kVmGetSize, GetSizeRequest{id, version})
      .Then([](Result<GetSizeResponse> rsp) -> Result<uint64_t> {
        if (!rsp.ok()) return rsp.status();
        return rsp->size;
      });
}

Future<Unit> VersionManagerClient::AwaitPublishedAsync(BlobId id,
                                                       Version version,
                                                       uint64_t timeout_us) {
  auto ch = Chan();
  if (!ch.ok()) return MakeReadyFuture(ch.status());
  return rpc::CallMethodAsync<AwaitRequest, AwaitResponse>(
             *ch, rpc::Method::kVmAwaitPublished,
             AwaitRequest{id, version, timeout_us})
      .Then([](Result<AwaitResponse> rsp) -> Status {
        if (!rsp.ok()) return rsp.status();
        return rsp->published ? Status::OK()
                              : Status::TimedOut("not published");
      });
}

Result<BlobDescriptor> VersionManagerClient::Branch(BlobId id,
                                                    Version version) {
  auto ch = Chan();
  if (!ch.ok()) return ch.status();
  BranchRequest req{id, version};
  BranchResponse rsp;
  BS_RETURN_NOT_OK(
      rpc::CallMethod(*ch, rpc::Method::kVmBranch, req, &rsp));
  return std::move(rsp.descriptor);
}

Result<VmStats> VersionManagerClient::GetStats() {
  auto ch = Chan();
  if (!ch.ok()) return ch.status();
  VmStatsRequest req;
  VmStatsResponse rsp;
  BS_RETURN_NOT_OK(
      rpc::CallMethod(*ch, rpc::Method::kVmStats, req, &rsp));
  VmStats st;
  st.blobs = rsp.blobs;
  st.assigned = rsp.assigned;
  st.published = rsp.published;
  st.aborted = rsp.aborted;
  st.discarded = rsp.discarded;
  st.sync_waiters = rsp.sync_waiters;
  return st;
}

Status VersionManagerClient::SetRetention(
    BlobId id, const lifecycle::RetentionPolicy& policy) {
  auto ch = Chan();
  if (!ch.ok()) return ch.status();
  SetRetentionRequest req{id, policy};
  SetRetentionResponse rsp;
  return rpc::CallMethod(*ch, rpc::Method::kVmSetRetention, req, &rsp);
}

Result<lifecycle::RetentionPolicy> VersionManagerClient::GetRetention(
    BlobId id) {
  auto ch = Chan();
  if (!ch.ok()) return ch.status();
  GetRetentionRequest req{id};
  GetRetentionResponse rsp;
  BS_RETURN_NOT_OK(
      rpc::CallMethod(*ch, rpc::Method::kVmGetRetention, req, &rsp));
  return rsp.policy;
}

Result<std::vector<VersionInfo>> VersionManagerClient::ListVersions(BlobId id) {
  auto ch = Chan();
  if (!ch.ok()) return ch.status();
  ListVersionsRequest req{id};
  ListVersionsResponse rsp;
  BS_RETURN_NOT_OK(
      rpc::CallMethod(*ch, rpc::Method::kVmListVersions, req, &rsp));
  return std::move(rsp.versions);
}

Status VersionManagerClient::DiscardVersion(BlobId id, Version version) {
  auto ch = Chan();
  if (!ch.ok()) return ch.status();
  DiscardVersionRequest req{id, version};
  DiscardVersionResponse rsp;
  return rpc::CallMethod(*ch, rpc::Method::kVmDiscardVersion, req, &rsp);
}

Result<std::vector<BlobId>> VersionManagerClient::ListBlobs() {
  auto ch = Chan();
  if (!ch.ok()) return ch.status();
  ListBlobsRequest req;
  ListBlobsResponse rsp;
  BS_RETURN_NOT_OK(
      rpc::CallMethod(*ch, rpc::Method::kVmListBlobs, req, &rsp));
  return std::move(rsp.blobs);
}

}  // namespace blobseer::vmanager
