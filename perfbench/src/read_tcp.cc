// read_tcp — Fig. 2(b) with four readers over TCP loopback. One 256 MiB blob
// (64 KiB pages) holds four 64 MiB chunks; each slot repeatedly starts a
// fresh client, streams its own chunk in 1 MiB reads of the published
// version and drops the client, so every read misses the empty metadata and
// location caches exactly like a reader in the paper.
#include <algorithm>

#include "common/hash.h"
#include "common/random.h"
#include "common/string_util.h"
#include "src/bench.h"
#include "src/checks.h"

namespace perfbench {

using blobseer::Status;
using blobseer::core::ClusterOptions;
using blobseer::core::EmbeddedCluster;

namespace {

constexpr uint64_t kMiB = 1 << 20;
constexpr uint64_t kChunk = 64 * kMiB;
constexpr uint64_t kBlob = kSlots * kChunk;
constexpr uint64_t kPage = 64 * 1024;
constexpr uint64_t kReadsPerChunk = kChunk / kMiB;
/// Set-up appends the blob in slices this small, so that few bytes are in
/// flight at once and the set-up's peak RSS measures what the cluster
/// keeps, not how far the loader ran ahead of the providers.
constexpr uint64_t kLoadAppend = 4 * kMiB;
constexpr int kSetupRepeats = 7;

struct Deployment {
  std::unique_ptr<EmbeddedCluster> cluster;
  blobseer::BlobId blob = 0;
  blobseer::Version version = 0;
};

// Starts the cluster and appends the pattern blob; everything up to the
// first timed read.
Status Deploy(const std::string& transport, uint64_t tag, unsigned nproc,
              Deployment* d) {
  ClusterOptions o;
  o.num_providers = 6;
  o.num_meta = 4;
  o.transport = transport;
  o.page_store = "memory";
  o.replication = 2;
  auto cluster = EmbeddedCluster::Start(o);
  if (!cluster.ok()) return cluster.status();
  d->cluster = std::move(cluster).ValueUnsafe();
  blobseer::client::ClientOptions lo;
  lo.replication = 2;
  lo.io_threads = nproc;
  lo.channels_per_endpoint = nproc;
  auto loader = MakeClient(*d->cluster, d->cluster->transport(), lo);
  auto id = loader->Create(kPage);
  if (!id.ok()) return id.status();
  d->blob = *id;
  std::string buf(kLoadAppend, '\0');
  for (uint64_t off = 0; off < kBlob; off += kLoadAppend) {
    FillPattern(tag, off, buf.data(), buf.size());
    auto v = loader->Append(d->blob, blobseer::Slice(buf));
    if (!v.ok()) return v.status();
    d->version = *v;
  }
  return loader->Sync(d->blob, d->version);
}

struct Plan {
  uint64_t seed = 0;
  uint64_t tag = 0;
  std::vector<uint64_t> chunk_of_slot;
};

Plan MakePlan(uint64_t seed) {
  Plan p;
  p.seed = seed;
  p.tag = blobseer::HashCombine(seed, 0x72656164) | 1;
  for (uint64_t c = 0; c < kSlots; c++) p.chunk_of_slot.push_back(c);
  blobseer::Rng rng(seed);
  for (size_t i = kSlots - 1; i > 0; i--)
    std::swap(p.chunk_of_slot[i], p.chunk_of_slot[rng.Uniform(i + 1)]);
  return p;
}

// Seeded start offset (in 1 MiB reads) of each pass of one slot.
blobseer::Rng PassRng(const Plan& p, size_t slot) {
  return blobseer::Rng(blobseer::HashCombine(p.seed, slot + 1));
}

std::string Fingerprint(const Plan& p) {
  std::string canon = blobseer::StrFormat("read_tcp tag=%llx",
                                          (unsigned long long)p.tag);
  for (size_t s = 0; s < kSlots; s++) {
    canon += blobseer::StrFormat(" slot%zu:chunk%llu:", s,
                                 (unsigned long long)p.chunk_of_slot[s]);
    blobseer::Rng rng = PassRng(p, s);
    for (int pass = 0; pass < 16; pass++)
      canon += blobseer::StrFormat("%llu,", (unsigned long long)rng.Uniform(
                                                kReadsPerChunk));
  }
  return blobseer::StrFormat(
      "%016llx", (unsigned long long)blobseer::Fnv1a64(blobseer::Slice(canon)));
}

// One timed phase: every slot streams its chunk pass after pass until the
// deadline. `trace` hands each slot's clients a tracing decorator.
Status RunPhase(Deployment& d, const Plan& plan, double seconds, bool trace,
                unsigned nproc, PhaseResult* out) {
  auto loop = [&](size_t s, blobseer::rpc::Transport* t,
                  TracingTransport* tracer, int64_t deadline, PhaseResult* r) {
    const uint64_t chunk = plan.chunk_of_slot[s];
    blobseer::Rng rng = PassRng(plan, s);
    std::string out;
    uint64_t seq = 0;
    while (NowNs() < deadline) {
      auto client = MakeClient(*d.cluster, t, SlotClientOptions(nproc, 2));
      const uint64_t first = rng.Uniform(kReadsPerChunk);
      for (uint64_t i = 0; i < kReadsPerChunk && NowNs() < deadline; i++) {
        const uint64_t off =
            chunk * kChunk + ((first + i) % kReadsPerChunk) * kMiB;
        const uint64_t id = OpId(s, ++seq);
        if (tracer) tracer->BeginOp(id);
        const int64_t b = NowNs();
        Status st = client->Read(d.blob, d.version, off, kMiB, &out);
        const int64_t e = NowNs();
        if (tracer) tracer->EndOp();
        r->attempted++;
        if (!st.ok()) {
          r->failed++;
          continue;
        }
        if (out.size() != kMiB ||
            CheckPattern(plan.tag, off, out.data(), kMiB) != kAllMatch) {
          r->wrong_bytes++;
          continue;
        }
        r->read_bytes += kMiB;
        r->ops.push_back(OpRecord{id, b, e, OpKind::kRead, kMiB});
      }
      AddClientCounters(*client, &r->counters);
    }
  };
  return RunSlots(*d.cluster, seconds, trace, loop, out);
}

double SpaceAmp(Deployment& d) {
  uint64_t stored = 0;
  if (!StoredBytes(*d.cluster, &stored).ok()) return 0;
  return double(stored) / double(kBlob);
}

}  // namespace

WorkloadOutcome RunReadTcp(const RunConfig& cfg) {
  WorkloadOutcome o;
  const Plan plan = MakePlan(cfg.seed);
  o.record.emplace_back("schedule_fingerprint", Fingerprint(plan));
  o.record.emplace_back("store", "memory (no store I/O)");
  auto fail = [&](const std::string& what, const Status& st) {
    o.error = what + ": " + st.ToString();
    return std::move(o);
  };

  // The measured deployment comes first, so its memory figures are not
  // inflated by set-ups torn down before it; the remaining set-up repeats
  // run after the timed phase.
  Deployment d;
  RunFacts facts;
  auto deploy = [&]() {
    d = Deployment{};  // tear the previous deployment down first
    return TimeSetup([&] { return Deploy("tcp", plan.tag, cfg.nproc, &d); },
                     &facts.setups);
  };
  Status st = deploy();
  if (!st.ok()) return fail("set-up", st);
  facts.setup_rss_mib = PeakRssMiB();

  PhaseResult base;
  const double phase_s = cfg.trace ? cfg.seconds / 3 : cfg.seconds;
  st = RunPhase(d, plan, phase_s, false, cfg.nproc, &base);
  if (!st.ok()) return fail("untraced phase", st);
  o.attempted = base.attempted;
  o.failed = base.failed;
  o.wrong_bytes = base.wrong_bytes;
  if (!cfg.trace) {
    facts.peak_rss_mib = PeakRssMiB();
    facts.space_amp.push_back(SpaceAmp(d));
    for (int i = 1; i < kSetupRepeats; i++) {
      st = deploy();
      if (!st.ok()) return fail("set-up repeat", st);
    }
    AddEndToEnd(&o.report, base, facts);
    return o;
  }

  PhaseResult traced, replay;
  st = RunPhase(d, plan, phase_s, true, cfg.nproc, &traced);
  if (!st.ok()) return fail("traced phase", st);
  // In-process replay with the same seed: same blob, chunks and offsets.
  d = Deployment{};
  st = Deploy("inproc", plan.tag, cfg.nproc, &d);
  if (!st.ok()) return fail("in-process set-up", st);
  st = RunPhase(d, plan, phase_s, true, cfg.nproc, &replay);
  if (!st.ok()) return fail("in-process replay", st);
  for (const PhaseResult* p : {&traced, &replay}) {
    o.attempted += p->attempted;
    o.failed += p->failed;
    o.wrong_bytes += p->wrong_bytes;
  }
  const double ratio = Ratio(SteadyRate(traced, &Window::read_bytes_per_s),
                             SteadyRate(base, &Window::read_bytes_per_s));
  AddPerLayer(&o.report, traced, &replay, ratio);
  for (auto [name, p] : {std::pair{"tcp", &traced}, {"inproc", &replay}}) {
    const std::string path = cfg.workdir + "/spans-read_tcp-" + name + ".csv";
    st = DumpSpans(path, *p);
    if (!st.ok()) return fail("span dump", st);
    o.record.emplace_back(std::string("spans_") + name, path);
  }
  return o;
}

}  // namespace perfbench
