// append_log — Fig. 2(a) under concurrency on the log-structured page store.
// Each round deploys a fresh in-process cluster whose six providers keep
// their pages in pagelog stores under a fresh directory, with per-put
// fdatasync off (see Deploy). Two slots append tagged 1 MiB payloads to one
// shared blob and SYNC each; two slots follow the tail, reading the newest
// 1 MiB of every version once it is published, so the read volume tracks
// the append bandwidth. Each read must hold the payload of the version it
// read. At the end of a round the whole final snapshot is swept: each 1 MiB
// slot must hold the payload that received that version. Then the round's
// store directory is removed.
#include <sys/statfs.h>
#include <sys/statvfs.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <mutex>
#include <thread>

#include "common/hash.h"
#include "common/string_util.h"
#include "pagelog/io_backend.h"
#include "pagelog/log_page_store.h"
#include "pmanager/client.h"
#include "provider/service.h"
#include "src/bench.h"
#include "src/checks.h"

namespace perfbench {

using blobseer::Status;
using blobseer::core::ClusterOptions;
using blobseer::core::EmbeddedCluster;

namespace {

constexpr uint64_t kMiB = 1 << 20;
constexpr uint64_t kPage = 64 * 1024;
constexpr size_t kProviders = 6;
/// Set-up appends this many tagged MiB, so that a set-up covers the store's
/// write path and not only the cluster start.
constexpr uint32_t kPreloadMiB = 32;
constexpr size_t kAppenders = 2;
/// A round appends at most this many MiB, or lasts at most kRoundS. With
/// r=2 a round's stores hold twice (kRoundAppendMiB + kPreloadMiB) MiB,
/// which stays in the page cache: the directory is removed before the
/// kernel's background writeback would start on it.
constexpr uint64_t kRoundAppendMiB = 256;
constexpr double kRoundS = 2.0;
/// Segments large enough that none seals (and syncs) within a round.
constexpr uint64_t kSegmentBytes = 1ull << 30;
/// A reader waits for the next version in slices of this length, so that
/// it notices the end of the round.
constexpr int64_t kWaitChunkUs = 100000;

/// A store directory created fresh under the work directory and removed
/// with everything in it when the object goes out of scope, on every path.
class ScopedDir {
 public:
  ScopedDir() = default;
  ScopedDir(const ScopedDir&) = delete;
  ScopedDir& operator=(const ScopedDir&) = delete;
  ~ScopedDir() { Remove(); }

  Status Create(const std::string& parent) {
    Remove();
    std::string tmpl = parent + "/store-XXXXXX";
    if (mkdtemp(tmpl.data()) == nullptr)
      return Status::IOError("mkdtemp under " + parent);
    path_ = tmpl;
    return Status::OK();
  }
  void Remove() {
    if (path_.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
    path_.clear();
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string FilesystemName(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x58465342:
      return "xfs";
    case 0x01021994:
      return "tmpfs";
    case 0x794c7630:
      return "overlayfs";
    case 0x9123683E:
      return "btrfs";
    default:
      return blobseer::StrFormat("fs-0x%lx",
                                 static_cast<unsigned long>(fs.f_type));
  }
}

/// One round's cluster. Torn down in order on every path: the providers
/// served here stop serving, their segment files are truncated (the round's
/// data is done with, and a store closing with sync off flushes what it
/// holds, which would write it all to disk), the stores close, the cluster
/// stops and the directory is removed.
struct Deployment {
  ScopedDir dir;
  std::unique_ptr<EmbeddedCluster> cluster;
  std::vector<std::shared_ptr<blobseer::provider::ProviderService>> providers;
  std::vector<std::string> provider_addrs;
  blobseer::BlobId blob = 0;
  std::mutex mu;
  TagOfVersion tag_of_version;  // guarded by mu

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() {
    for (const auto& a : provider_addrs)
      (void)cluster->transport()->StopServing(a);
    std::error_code ec;
    if (!dir.path().empty()) {
      for (const auto& e :
           std::filesystem::recursive_directory_iterator(dir.path(), ec)) {
        if (e.is_regular_file(ec)) std::filesystem::resize_file(e, 0, ec);
      }
    }
    providers.clear();
    cluster.reset();
    dir.Remove();
  }
};

// Creates the round's directory and opens its six pagelog stores, each
// behind a provider service. Untimed: opening a store creates its first
// segment and fsyncs the directory, which measures the shared disk.
Status OpenStores(const std::string& workdir, Deployment* d) {
  BS_RETURN_NOT_OK(d->dir.Create(workdir));
  blobseer::pagelog::LogPageStoreOptions lo;
  lo.sync = false;
  lo.segment_target_bytes = kSegmentBytes;
  for (size_t i = 0; i < kProviders; i++) {
    d->providers.push_back(std::make_shared<blobseer::provider::ProviderService>(
        blobseer::pagelog::MakeLogPageStore(
            blobseer::StrFormat("%s/provider-%zu", d->dir.path().c_str(), i),
            lo)));
  }
  return Status::OK();
}

// EmbeddedCluster opens "log:" stores only with per-put fdatasync, whose
// cost is set by the shared disk, not by the program. So the cluster runs
// the vmanager, the pmanager and the DHT; its one required provider is
// decommissioned (it gets no pages), and the stores of OpenStores are
// served on the cluster's transport and registered like any provider.
Status Deploy(uint64_t seed, uint32_t round, unsigned nproc, Deployment* d) {
  ClusterOptions o;
  o.num_providers = 1;
  o.num_meta = 4;
  o.transport = "inproc";
  o.replication = 2;
  auto cluster = EmbeddedCluster::Start(o);
  if (!cluster.ok()) return cluster.status();
  d->cluster = std::move(cluster).ValueUnsafe();
  auto drained = d->cluster->Decommission(0);
  if (!drained.ok()) return drained.status();
  blobseer::pmanager::ProviderManagerClient pm(d->cluster->transport(),
                                               d->cluster->pmanager_address());
  for (size_t i = 0; i < d->providers.size(); i++) {
    auto addr = d->cluster->transport()->Serve(
        blobseer::StrFormat("inproc://log-provider-%zu", i), d->providers[i]);
    if (!addr.ok()) return addr.status();
    d->provider_addrs.push_back(*addr);
    auto id = pm.Register(*addr, 0);
    if (!id.ok()) return id.status();
  }

  auto loader = MakeClient(*d->cluster, d->cluster->transport(),
                           SlotClientOptions(nproc, 2));
  auto id = loader->Create(kPage);
  if (!id.ok()) return id.status();
  d->blob = *id;
  blobseer::Version last = 0;
  for (uint32_t i = 0; i < kPreloadMiB; i++) {
    const uint64_t tag = AppendTag(seed, 0, round * kPreloadMiB + i);
    std::string payload = MakeTaggedPayload(tag, kMiB);
    auto v = loader->Append(d->blob, blobseer::Slice(payload));
    if (!v.ok()) return v.status();
    d->tag_of_version[*v] = tag;
    last = *v;
  }
  return loader->Sync(d->blob, last);
}

// An appender's closed loop: append a tagged 1 MiB payload and SYNC it,
// until the deadline or until the phase's byte bound is reached.
void AppendLoop(Deployment& d, uint64_t seed, uint64_t bound,
                std::atomic<uint64_t>* appended,
                std::atomic<uint32_t>* next_seq, std::atomic<bool>* stop,
                blobseer::client::BlobClient& c, size_t s,
                TracingTransport* tracer, int64_t deadline, PhaseResult* r) {
  uint64_t seq = 0;
  while (!stop->load() && NowNs() < deadline) {
    if (appended->fetch_add(kMiB) + kMiB > bound) {
      *stop = true;  // byte bound reached: the phase ends for all slots
      return;
    }
    const uint64_t id = OpId(s, ++seq);
    const uint64_t tag =
        AppendTag(seed, uint32_t(s + 1), next_seq->fetch_add(1));
    const std::string payload = MakeTaggedPayload(tag, kMiB);
    if (tracer) tracer->BeginOp(id);
    const int64_t b = NowNs();
    auto v = c.Append(d.blob, blobseer::Slice(payload));
    Status st = v.ok() ? c.Sync(d.blob, *v) : v.status();
    const int64_t e = NowNs();
    if (tracer) tracer->EndOp();
    r->attempted++;
    if (!st.ok()) {
      r->failed++;
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(d.mu);
      d.tag_of_version[*v] = tag;
    }
    r->update_bytes += kMiB;
    r->ops.push_back(OpRecord{id, b, e, OpKind::kUpdate, kMiB});
  }
}

// A reader follows the tail of the log. It waits, untimed, until the
// version after the last one it read is published; then it calls
// GET_RECENT and reads the newest 1 MiB of every version published since,
// oldest first. The first read of such a batch includes the GET_RECENT
// that found it. Each read's (version, tag) goes to `seen` for the check
// against the appenders' record once the phase is over.
void FollowTail(Deployment& d, const std::atomic<bool>& stop,
                blobseer::client::BlobClient& c, size_t s,
                TracingTransport* tracer, int64_t deadline, PhaseResult* r,
                std::vector<VersionTag>* seen) {
  auto start = c.GetRecent(d.blob);
  if (!start.ok()) {
    r->attempted++;
    r->failed++;
    return;
  }
  blobseer::Version last = start->version;
  std::string out;
  uint64_t seq = 0;
  while (!stop.load()) {
    const int64_t left_us = (deadline - NowNs()) / 1000;
    if (left_us < 1000) break;
    Status w = c.Sync(d.blob, last + 1,
                      uint64_t(std::min<int64_t>(left_us, kWaitChunkUs)));
    if (w.IsTimedOut()) continue;
    if (!w.ok()) {
      r->attempted++;
      r->failed++;
      continue;
    }
    if (NowNs() >= deadline) break;
    uint64_t id = OpId(s, ++seq);
    if (tracer) tracer->BeginOp(id);
    int64_t b = NowNs();
    auto rv = c.GetRecent(d.blob);
    if (!rv.ok() || rv->version <= last) {
      if (tracer) tracer->EndOp();
      r->attempted++;
      // GET_RECENT must see the version the wait saw published.
      (rv.ok() ? r->wrong_bytes : r->failed)++;
      continue;
    }
    // Every version is one 1 MiB append, so version v ends
    // (rv->version - v) MiB before the newest snapshot does.
    for (blobseer::Version v = last + 1; v <= rv->version; v++) {
      if (v > last + 1) {
        id = OpId(s, ++seq);
        if (tracer) tracer->BeginOp(id);
        b = NowNs();
      }
      const uint64_t back = (rv->version - v + 1) * kMiB;
      Status st = back <= rv->size
                      ? c.Read(d.blob, v, rv->size - back, kMiB, &out)
                      : Status::OK();
      const int64_t e = NowNs();
      if (tracer) tracer->EndOp();
      r->attempted++;
      if (!st.ok()) {
        r->failed++;
        continue;
      }
      uint64_t tag = 0;
      if (back > rv->size || out.size() != kMiB ||
          CheckTaggedPayload(out.data(), kMiB, &tag) != kAllMatch) {
        r->wrong_bytes++;
        continue;
      }
      seen->push_back(VersionTag{v, tag});
      r->read_bytes += kMiB;
      r->ops.push_back(OpRecord{id, b, e, OpKind::kRead, kMiB});
    }
    last = rv->version;
  }
}

// One round's timed phase, as one window: runs until the appenders reach
// the round's byte bound or `seconds` pass.
Status RunPhase(Deployment& d, uint64_t seed, double seconds, bool trace,
                unsigned nproc, std::atomic<uint32_t>* next_seq,
                PhaseResult* out) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> appended{0};
  std::vector<std::vector<VersionTag>> seen(kSlots);
  auto loop = [&](size_t s, blobseer::rpc::Transport* t,
                  TracingTransport* tracer, int64_t deadline, PhaseResult* r) {
    auto c = MakeClient(*d.cluster, t, SlotClientOptions(nproc, 2));
    if (s < kAppenders) {
      AppendLoop(d, seed, kRoundAppendMiB * kMiB, &appended, next_seq, &stop,
                 *c, s, tracer, deadline, r);
    } else {
      FollowTail(d, stop, *c, s, tracer, deadline, r, &seen[s]);
    }
    AddClientCounters(*c, &r->counters);
  };
  BS_RETURN_NOT_OK(RunSlots(*d.cluster, seconds, trace, loop, out, true));
  // Every appended version has its tag by now: each read must have found
  // the payload of the version it read, not merely some intact payload.
  std::lock_guard<std::mutex> lock(d.mu);
  for (const auto& slot : seen)
    out->wrong_bytes += CountMisattributed(slot, d.tag_of_version);
  return Status::OK();
}

// Reads the final snapshot 1 MiB at a time, split over kSlots threads: the
// i-th appended version must occupy slot i and hold exactly its tagged
// payload. Returns the number of wrong slots; `*size` gets the snapshot
// size.
Status SweepFinal(Deployment& d, unsigned nproc, uint64_t* wrong,
                  uint64_t* size) {
  auto c = MakeClient(*d.cluster, d.cluster->transport(),
                      SlotClientOptions(nproc, 2));
  auto rv = c->GetRecent(d.blob);
  if (!rv.ok()) return rv.status();
  *size = rv->size;
  std::vector<uint64_t> tags;
  {
    std::lock_guard<std::mutex> lock(d.mu);
    if (rv->size != d.tag_of_version.size() * kMiB)
      return Status::Corruption(blobseer::StrFormat(
          "final snapshot holds %llu bytes, %zu MiB were appended",
          (unsigned long long)rv->size, d.tag_of_version.size()));
    for (const auto& [version, tag] : d.tag_of_version) {
      if (!tags.empty() && version != d.tag_of_version.begin()->first +
                                          tags.size())
        return Status::Corruption("appended versions are not contiguous");
      tags.push_back(tag);
    }
  }
  std::atomic<uint64_t> bad{0};
  std::vector<Status> status(kSlots);
  std::vector<std::thread> threads;
  for (size_t s = 0; s < kSlots; s++) {
    threads.emplace_back([&, s] {
      auto sc = MakeClient(*d.cluster, d.cluster->transport(),
                           SlotClientOptions(nproc, 2));
      std::string out;
      for (size_t slot = s; slot < tags.size(); slot += kSlots) {
        status[s] =
            sc->Read(d.blob, rv->version, slot * kMiB, kMiB, &out);
        if (!status[s].ok()) return;
        if (out != MakeTaggedPayload(tags[slot], kMiB)) bad++;
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const Status& st : status) BS_RETURN_NOT_OK(st);
  *wrong += bad.load();
  return Status::OK();
}

struct RoundResult {
  PhaseResult phase;
  SetupSample setup;
  double setup_rss_mib = 0;
  double space_amp = 0;
  uint64_t swept_mib = 0;
  std::string store_fs;
};

// One round: a timed set-up, the timed phase, the final sweep and the
// space figure; the deployment is torn down on return, on every path.
Status RunRound(const RunConfig& cfg, uint32_t round, bool trace,
                std::atomic<uint32_t>* next_seq, RoundResult* out) {
  Deployment d;
  BS_RETURN_NOT_OK(OpenStores(cfg.workdir, &d));
  std::vector<SetupSample> setups;
  BS_RETURN_NOT_OK(TimeSetup(
      [&] { return Deploy(cfg.seed, round, cfg.nproc, &d); }, &setups));
  out->setup = setups.front();
  out->setup_rss_mib = PeakRssMiB();
  out->store_fs = FilesystemName(d.dir.path());
  BS_RETURN_NOT_OK(RunPhase(d, cfg.seed, kRoundS, trace, cfg.nproc, next_seq,
                            &out->phase));
  uint64_t wrong_slots = 0, size = 0, stored = 0;
  BS_RETURN_NOT_OK(SweepFinal(d, cfg.nproc, &wrong_slots, &size));
  out->phase.wrong_bytes += wrong_slots;
  out->swept_mib = size / kMiB;
  BS_RETURN_NOT_OK(StoredBytes(*d.cluster, &stored));
  out->space_amp = Ratio(double(stored), double(size));
  return Status::OK();
}

// Runs rounds until their timed phases add up to `seconds`.
Status RunRounds(const RunConfig& cfg, double seconds, bool trace,
                 uint32_t* round, std::atomic<uint32_t>* next_seq,
                 PhaseResult* phase, RunFacts* facts, uint64_t* swept_mib) {
  while (phase->wall_s < seconds) {
    RoundResult rr;
    BS_RETURN_NOT_OK(RunRound(cfg, (*round)++, trace, next_seq, &rr));
    phase->Merge(std::move(rr.phase));
    facts->setups.push_back(rr.setup);
    facts->space_amp.push_back(rr.space_amp);
    *swept_mib += rr.swept_mib;
  }
  return Status::OK();
}

}  // namespace

WorkloadOutcome RunAppendLog(const RunConfig& cfg) {
  WorkloadOutcome o;
  auto fail = [&](const std::string& what, const Status& st) {
    o.error = what + ": " + st.ToString();
    return std::move(o);
  };
  // The seed only names the payload tags; appenders and readers are
  // closed loops whose interleaving the run measures.
  const std::string canon = blobseer::StrFormat(
      "append_log preload=%u appenders=%zu round_mib=%llu "
      "first_tags=%llx,%llx,%llx",
      kPreloadMiB, kAppenders, (unsigned long long)kRoundAppendMiB,
      (unsigned long long)AppendTag(cfg.seed, 0, 0),
      (unsigned long long)AppendTag(cfg.seed, 1, 0),
      (unsigned long long)AppendTag(cfg.seed, 2, 0));
  o.record.emplace_back(
      "schedule_fingerprint",
      blobseer::StrFormat("%016llx", (unsigned long long)blobseer::Fnv1a64(
                                         blobseer::Slice(canon))));

  // A round's stores hold every byte twice (r=2); refuse a disk that does
  // not hold four times that.
  struct statvfs vfs {};
  if (statvfs(cfg.workdir.c_str(), &vfs) != 0)
    return fail("statvfs", Status::IOError(cfg.workdir));
  const uint64_t free_bytes = uint64_t(vfs.f_bavail) * vfs.f_frsize;
  if (free_bytes < 8 * (kRoundAppendMiB + kPreloadMiB) * kMiB)
    return fail("free disk", Status::IOError(blobseer::StrFormat(
                                 "%llu MiB free under %s",
                                 (unsigned long long)(free_bytes / kMiB),
                                 cfg.workdir.c_str())));

  uint32_t round = 0;
  uint64_t swept_mib = 0;
  std::atomic<uint32_t> next_seq{0};
  PhaseResult base, traced;
  RunFacts facts, traced_facts;
  // One untimed round first: the process's allocator and the code paths
  // warm up, which a long-running deployment has long done.
  RoundResult warm;
  Status st = RunRound(cfg, round++, false, &next_seq, &warm);
  if (!st.ok()) return fail("warm-up round", st);
  swept_mib += warm.swept_mib;
  facts.setup_rss_mib = warm.setup_rss_mib;  // the process's first set-up
  o.record.emplace_back("store_fs", warm.store_fs);
  o.record.emplace_back("io_backend",
                        blobseer::pagelog::MakeIoBackend("")->name());
  o.record.emplace_back(
      "flush_policy",
      "pagelog sync off: buffered writes, no fdatasync within a round");
  o.record.emplace_back("round_append_mib", std::to_string(kRoundAppendMiB));

  const double phase_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  st = RunRounds(cfg, phase_s, false, &round, &next_seq, &base, &facts,
                 &swept_mib);
  if (!st.ok()) return fail("untraced rounds", st);
  if (cfg.trace) {
    st = RunRounds(cfg, phase_s, true, &round, &next_seq, &traced,
                   &traced_facts, &swept_mib);
    if (!st.ok()) return fail("traced rounds", st);
  }
  o.record.emplace_back("rounds", std::to_string(round));
  o.record.emplace_back("final_sweep_mib", std::to_string(swept_mib));

  for (const PhaseResult* p : {&warm.phase, &base, &traced}) {
    o.attempted += p->attempted;
    o.failed += p->failed;
    o.wrong_bytes += p->wrong_bytes;
  }
  if (!cfg.trace) {
    facts.peak_rss_mib = PeakRssMiB();
    AddEndToEnd(&o.report, base, facts);
    return o;
  }
  const double ratio =
      Ratio(SteadyRate(traced, &Window::update_bytes_per_s),
            SteadyRate(base, &Window::update_bytes_per_s));
  AddPerLayer(&o.report, traced, nullptr, ratio);
  const std::string path = cfg.workdir + "/spans-append_log.csv";
  st = DumpSpans(path, traced);
  if (!st.ok()) return fail("span dump", st);
  o.record.emplace_back("spans", path);
  return o;
}

}  // namespace perfbench
