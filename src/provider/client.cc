#include "provider/client.h"

#include "provider/messages.h"
#include "rpc/call.h"

namespace blobseer::provider {

ProviderClient::ProviderClient(rpc::Transport* transport,
                               size_t channels_per_endpoint)
    : pool_(transport, channels_per_endpoint) {}

Status ProviderClient::Stats(const std::string& address, uint64_t* pages,
                             uint64_t* bytes) {
  auto st = FetchStats(address);
  if (!st.ok()) return st.status();
  *pages = st->pages;
  *bytes = st->bytes;
  return Status::OK();
}

Result<PageStoreStats> ProviderClient::FetchStats(const std::string& address) {
  StatsRequest req;
  StatsResponse rsp;
  BS_RETURN_NOT_OK(rpc::CallWithReconnect(
      &pool_, address, rpc::Method::kProviderStats, req, &rsp));
  PageStoreStats st;
  st.pages = rsp.pages;
  st.bytes = rsp.bytes;
  st.writes = rsp.writes;
  st.reads = rsp.reads;
  st.deletes = rsp.deletes;
  st.segments = rsp.segments;
  st.dead_bytes = rsp.dead_bytes;
  st.syncs = rsp.syncs;
  st.compactions = rsp.compactions;
  st.io_submissions = rsp.io_submissions;
  st.io_sqes = rsp.io_sqes;
  st.bytes_written = rsp.bytes_written;
  st.read_syscalls = rsp.read_syscalls;
  st.recovery_us = rsp.recovery_us;
  return st;
}

Future<Unit> ProviderClient::WritePageAsync(const std::string& address,
                                            const PageId& pid, Slice data) {
  WriteRequest req;
  req.pid = pid;
  req.data = data.ToString();
  return rpc::CallWithReconnectAsync<WriteRequest, WriteResponse>(
             &pool_, address, rpc::Method::kProviderWrite, std::move(req))
      .Then([](Result<WriteResponse> rsp) { return rsp.status(); });
}

Future<std::string> ProviderClient::ReadPageAsync(const std::string& address,
                                                  const PageId& pid,
                                                  uint64_t offset,
                                                  uint64_t len) {
  return rpc::CallWithReconnectAsync<ReadRequest, ReadResponse>(
             &pool_, address, rpc::Method::kProviderRead,
             ReadRequest{pid, offset, len})
      .Then([](Result<ReadResponse> rsp) -> Result<std::string> {
        if (!rsp.ok()) return rsp.status();
        return std::move(rsp->data);
      });
}

Future<Unit> ProviderClient::DeletePageAsync(const std::string& address,
                                             const PageId& pid) {
  return rpc::CallWithReconnectAsync<DeleteRequest, DeleteResponse>(
             &pool_, address, rpc::Method::kProviderDelete, DeleteRequest{pid})
      .Then([](Result<DeleteResponse> rsp) { return rsp.status(); });
}

}  // namespace blobseer::provider
