// Typed client for the version manager. Every operation on the update and
// read path is async (Future<T>); the remaining sync methods are RPCs that
// only tools, tests and the GC sweeper issue. No call retries: an
// AssignVersion replayed after a lost response would assign a second
// version.
#ifndef BLOBSEER_VMANAGER_CLIENT_H_
#define BLOBSEER_VMANAGER_CLIENT_H_

#include <string>

#include "common/blob_descriptor.h"
#include "common/future.h"
#include "common/result.h"
#include "rpc/channel_pool.h"
#include "vmanager/core.h"

namespace blobseer::vmanager {

/// OpenBlob outcome: descriptor plus the published frontier at open time.
struct OpenInfo {
  BlobDescriptor descriptor;
  Version published = 0;
  uint64_t published_size = 0;
};

class VersionManagerClient {
 public:
  VersionManagerClient(rpc::Transport* transport, std::string address,
                       size_t channels = 2);

  /// Sync-only RPCs: branching, stats and the version lifecycle
  /// (docs/lifecycle.md). The GC sweeper drives the lifecycle calls from
  /// its own background loop.
  Result<BlobDescriptor> Branch(BlobId id, Version version);
  Result<VmStats> GetStats();
  Status SetRetention(BlobId id, const lifecycle::RetentionPolicy& policy);
  Result<lifecycle::RetentionPolicy> GetRetention(BlobId id);
  Result<std::vector<VersionInfo>> ListVersions(BlobId id);
  Status DiscardVersion(BlobId id, Version version);
  Result<std::vector<BlobId>> ListBlobs();

  Future<BlobDescriptor> CreateBlobAsync(uint64_t psize);
  Future<OpenInfo> OpenBlobAsync(BlobId id);
  Future<AssignTicket> AssignVersionAsync(BlobId id, bool is_append,
                                          uint64_t offset, uint64_t size);
  Future<Unit> NotifySuccessAsync(BlobId id, Version version);
  Future<AbortOutcome> AbortUpdateAsync(BlobId id, Version version);
  Future<RecentVersion> GetRecentAsync(BlobId id);
  /// GetRecentAsync waited on the calling thread (a real thread, not a
  /// simnet task). The one sync wrapper left: the repository benchmark
  /// (perfbench/) sums blob sizes through it and is kept unchanged.
  Result<RecentVersion> GetRecent(BlobId id) {
    return GetRecentAsync(id).Wait();
  }
  Future<uint64_t> GetSizeAsync(BlobId id, Version version);
  /// Resolves OK once published, TimedOut after `timeout_us` (server-push:
  /// the server parks a subscription and answers from the publisher, so no
  /// thread is held on either side and the shared channel pool stays usable
  /// — responses are matched by correlation id, not arrival order).
  Future<Unit> AwaitPublishedAsync(BlobId id, Version version,
                                   uint64_t timeout_us);

  const std::string& address() const { return address_; }

 private:
  Result<rpc::Channel*> Chan();

  std::string address_;
  rpc::ChannelPool pool_;
};

}  // namespace blobseer::vmanager

#endif  // BLOBSEER_VMANAGER_CLIENT_H_
