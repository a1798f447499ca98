// mixed_small — the unchanged "mixed" preset from src/workload (8 tenants,
// 4 KiB pages, 1-4 page ops, 70% reads up to 3 versions behind, zipf 0.9,
// 80% of mutations appends) on an in-process memory-store cluster. Each
// slot owns a client and a WorkloadRunner with a window of one op, so the
// runner's reference model and VerifyRetained check every byte.
//
// The run is a sequence of rounds, each on a fresh cluster with a fixed
// number of ops per slot, so memory and per-op bookkeeping do not grow with
// the length of the run or with the program's speed.
#include <barrier>
#include <chrono>
#include <mutex>
#include <thread>

#include "common/hash.h"
#include "common/string_util.h"
#include "src/bench.h"
#include "workload/generator.h"
#include "workload/runner.h"

namespace perfbench {

using blobseer::Status;
using blobseer::core::ClusterOptions;
using blobseer::core::EmbeddedCluster;
namespace wl = blobseer::workload;

namespace {

constexpr uint64_t kRoundOps = 2000;  // scheduled ops per slot per round

/// What a round records once every slot has created its tenants, before
/// any timed op is released: the barrier's completion step.
struct RoundStart {
  EmbeddedCluster* cluster = nullptr;
  LayerCounters counters;
  Status status;
  CpuTicks ticks;
  double rss_mib = 0;
  int64_t ns = 0;
};
struct MarkStart {
  RoundStart* start;
  void operator()() noexcept {
    start->status = ReadServerCounters(*start->cluster, &start->counters);
    start->ticks = ReadCpuTicks();
    start->rss_mib = PeakRssMiB();
    start->ns = NowNs();
  }
};
using StartBarrier = std::barrier<MarkStart>;

/// The runner's clock. With a window of one op the runner reads it exactly
/// once at Run start, then at each op's issue and completion (strictly
/// alternating), then once at Run end — so the recorded timestamps pair up
/// into exact per-op latencies, and issue/completion mark the op for the
/// slot's tracing decorator. The first issue waits at the round's start
/// barrier so every slot's timed window opens together.
class SlotClock : public blobseer::Clock {
 public:
  SlotClock(StartBarrier* start, TracingTransport* tracer, size_t slot,
            uint64_t first_op)
      : start_(start), tracer_(tracer), slot_(slot), first_op_(first_op) {}

  uint64_t NowMicros() override {
    std::unique_lock<std::mutex> lock(mu_);
    const size_t idx = ns_.size();
    const bool issue = idx % 2 == 1;
    if (issue && !arrived_) {
      arrived_ = true;
      lock.unlock();
      start_->arrive_and_wait();
      lock.lock();
    }
    const int64_t now = NowNs();
    ns_.push_back(now);
    if (tracer_ && idx > 0) {
      if (issue) {
        tracer_->BeginOp(OpId(slot_, first_op_ + idx / 2));
      } else {
        tracer_->EndOp();
      }
    }
    return uint64_t(now / 1000);
  }
  void SleepForMicros(uint64_t micros) override {
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
  }

  /// Called once Run returned: a slot that never issued an op must still
  /// release the barrier.
  void Finish() {
    std::lock_guard<std::mutex> lock(mu_);
    if (tracer_) tracer_->EndOp();
    if (!arrived_) {
      arrived_ = true;
      start_->arrive_and_drop();
    }
  }
  std::vector<int64_t> TakeTimestamps() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(ns_);
  }

 private:
  StartBarrier* start_;
  TracingTransport* tracer_;
  size_t slot_;
  uint64_t first_op_;
  std::mutex mu_;
  std::vector<int64_t> ns_;  // guarded by mu_
  bool arrived_ = false;     // guarded by mu_
};

// The preset with only the seed and the op count set per slot and round.
wl::WorkloadSpec SlotSpec(const wl::WorkloadSpec& preset, uint64_t seed,
                          size_t slot, uint64_t round) {
  wl::WorkloadSpec s = preset;
  s.seed = blobseer::HashCombine(seed, (round << 8) | slot);
  s.ops = kRoundOps;
  return s;
}

// First op id of a round: op ids stay unique across the rounds of a phase.
uint64_t FirstOp(uint64_t round) { return (round << 24) + 1; }

struct Slot {
  std::unique_ptr<TracingTransport> tracer;
  std::unique_ptr<blobseer::client::BlobClient> client;
  std::unique_ptr<SlotClock> clock;
  std::unique_ptr<wl::WorkloadRunner> runner;
  wl::WorkloadSpec spec;
  wl::Schedule schedule;
  Status run_status;
  Status verify_status;
  uint64_t verified_versions = 0;
};

// Turns a slot's clock readings into op records and checks them against
// the runner's own histograms: the pairing must reproduce them exactly.
Status CollectOps(Slot& slot, size_t index, uint64_t round, PhaseResult* r) {
  std::vector<int64_t> ns = slot.clock->TakeTimestamps();
  const wl::WorkloadReport& rep = slot.runner->report();
  std::vector<OpKind> kinds;
  for (const auto& op : slot.schedule.ops) {
    if (op.kind == wl::OpKind::kRead) kinds.push_back(OpKind::kRead);
    if (op.kind == wl::OpKind::kAppend || op.kind == wl::OpKind::kWrite)
      kinds.push_back(OpKind::kUpdate);
  }
  if (ns.size() < 2 || ns.size() % 2 != 0 ||
      (ns.size() - 2) / 2 != rep.ops_issued || rep.ops_issued != kinds.size())
    return Status::Corruption(blobseer::StrFormat(
        "runner clock readings (%zu) do not pair up with %llu issued ops",
        ns.size(), (unsigned long long)rep.ops_issued));
  wl::LatencyHistogram reads, updates;
  for (size_t k = 0; k < kinds.size(); k++) {
    const int64_t b = ns[2 * k + 1], e = ns[2 * k + 2];
    (kinds[k] == OpKind::kRead ? reads : updates)
        .Record(uint64_t(e / 1000) - uint64_t(b / 1000));
    r->ops.push_back(
        OpRecord{OpId(index, FirstOp(round) + k), b, e, kinds[k]});
  }
  const bool clean = rep.read_errors == 0 && rep.not_found_reads == 0 &&
                     rep.write_errors == 0;
  if (clean) {
    for (auto [mine, theirs] : {std::pair{&reads, &rep.read_latency},
                                {&updates, &rep.write_latency}}) {
      if (mine->count() != theirs->count() ||
          mine->Percentile(0.5) != theirs->Percentile(0.5) ||
          mine->Percentile(0.99) != theirs->Percentile(0.99) ||
          mine->max_us() != theirs->max_us())
        return Status::Corruption(
            "op latencies from the runner clock disagree with its histograms");
    }
  }
  r->attempted += rep.ops_issued;
  r->failed += rep.read_errors + rep.not_found_reads + rep.write_errors;
  r->wrong_bytes += rep.verify_failures;
  r->read_bytes += rep.read_bytes;
  r->update_bytes += rep.written_bytes;
  return Status::OK();
}

// Sum of the latest sizes of every blob: the user bytes the cluster holds.
Status UserBytes(EmbeddedCluster& cluster, uint64_t* bytes) {
  blobseer::vmanager::VersionManagerClient vm(cluster.transport(),
                                              cluster.vmanager_address(), 1);
  auto blobs = vm.ListBlobs();
  if (!blobs.ok()) return blobs.status();
  *bytes = 0;
  for (auto id : *blobs) {
    auto rv = vm.GetRecent(id);
    if (!rv.ok()) return rv.status();
    *bytes += rv->size;
  }
  return Status::OK();
}

struct RoundResult {
  PhaseResult phase;
  /// A set-up of a few milliseconds spans too few CPU ticks to read its
  /// steal share, so the sample carries the steal share of its whole round.
  SetupSample setup;
  double setup_rss_mib = 0;  // peak RSS when the set-up ended
  double space_amp = 0;
  uint64_t verified_versions = 0;
};

Status RunRound(const RunConfig& cfg, const wl::WorkloadSpec& preset,
                uint64_t round, bool trace, RoundResult* out) {
  const CpuTicks ticks_t0 = ReadCpuTicks();
  const int64_t t0 = NowNs();
  ClusterOptions o;
  o.num_providers = 6;
  o.num_meta = 4;
  o.transport = "inproc";
  o.page_store = "memory";
  o.replication = 2;
  auto started = EmbeddedCluster::Start(o);
  if (!started.ok()) return started.status();
  std::unique_ptr<EmbeddedCluster> cluster = std::move(started).ValueUnsafe();

  RoundStart marks;
  marks.cluster = cluster.get();
  StartBarrier start(kSlots + 1, MarkStart{&marks});
  std::vector<Slot> slots(kSlots);
  for (size_t s = 0; s < kSlots; s++) {
    Slot& sl = slots[s];
    sl.tracer = std::make_unique<TracingTransport>(cluster->transport());
    sl.client = MakeClient(
        *cluster, trace ? sl.tracer.get() : cluster->transport(),
        SlotClientOptions(cfg.nproc, 2));
    sl.clock = std::make_unique<SlotClock>(
        &start, trace ? sl.tracer.get() : nullptr, s, FirstOp(round));
    wl::RunnerOptions ro;
    ro.window = 1;
    sl.runner = std::make_unique<wl::WorkloadRunner>(sl.client.get(),
                                                     sl.clock.get(), ro);
    sl.spec = SlotSpec(preset, cfg.seed, s, round);
    sl.schedule = wl::GenerateSchedule(sl.spec);
  }
  // Slots verify their retained versions concurrently, once every slot's
  // timed ops are done.
  std::barrier<> runs_done(kSlots);
  std::vector<std::thread> threads;
  for (size_t s = 0; s < kSlots; s++) {
    threads.emplace_back([&slots, &runs_done, s] {
      Slot& sl = slots[s];
      sl.run_status = sl.runner->Run(sl.spec, sl.schedule);
      sl.clock->Finish();
      runs_done.arrive_and_wait();
      if (sl.run_status.ok())
        sl.verify_status =
            sl.runner->VerifyRetained(false, &sl.verified_versions);
    });
  }
  start.arrive_and_wait();  // every slot created its tenants
  const int64_t timed_start = marks.ns;
  out->setup.s = double(timed_start - t0) / 1e9;
  out->setup_rss_mib = marks.rss_mib;
  for (auto& th : threads) th.join();
  const CpuTicks ticks_end = ReadCpuTicks();
  out->setup.steal = StealShare(ticks_t0, ticks_end);
  BS_RETURN_NOT_OK(marks.status);

  // The round is one window whose rates are the sum of each slot's own
  // rate over its schedule: slots finish at different times, and a round
  // timed to the last one would count the idle tail of the others.
  PhaseResult& r = out->phase;
  int64_t timed_end = timed_start;
  Window w;
  w.steal = StealShare(marks.ticks, ticks_end);
  for (size_t s = 0; s < kSlots; s++) {
    Slot& sl = slots[s];
    if (!sl.run_status.ok()) return sl.run_status;
    PhaseResult sr;
    BS_RETURN_NOT_OK(CollectOps(sl, s, round, &sr));
    if (sr.ops.empty()) continue;
    const int64_t end = sr.ops.back().end_ns;
    const double secs = double(end - timed_start) / 1e9;
    w.ops_per_s += double(sr.ops.size()) / secs;
    w.read_bytes_per_s += double(sr.read_bytes) / secs;
    w.update_bytes_per_s += double(sr.update_bytes) / secs;
    for (const auto& op : sr.ops)
      if (op.kind == OpKind::kRead) w.read_us.Add(op.us());
    timed_end = std::max(timed_end, end);
    r.Merge(std::move(sr));
  }
  r.wall_s = double(timed_end - timed_start) / 1e9;
  r.windows.push_back(w);
  for (size_t s = 0; s < kSlots; s++) {
    Slot& sl = slots[s];
    if (sl.verify_status.IsCorruption()) {
      r.wrong_bytes++;
    } else if (!sl.verify_status.ok()) {
      return sl.verify_status;
    }
    out->verified_versions += sl.verified_versions;
    AddClientCounters(*sl.client, &r.counters);
    std::vector<Span> spans = sl.tracer->TakeSpans();
    r.spans.insert(r.spans.end(), spans.begin(), spans.end());
  }
  LayerCounters after;
  BS_RETURN_NOT_OK(ReadServerCounters(*cluster, &after));
  r.counters += after - marks.counters;
  uint64_t stored = 0, user = 0;
  BS_RETURN_NOT_OK(StoredBytes(*cluster, &stored));
  BS_RETURN_NOT_OK(UserBytes(*cluster, &user));
  out->space_amp = Ratio(double(stored), double(user));
  return Status::OK();
}

// Runs rounds until their timed windows add up to `seconds`.
Status RunRounds(const RunConfig& cfg, const wl::WorkloadSpec& preset,
                 double seconds, bool trace,
                 uint64_t* round, PhaseResult* phase,
                 RunFacts* facts, uint64_t* verified) {
  while (phase->wall_s < seconds) {
    RoundResult rr;
    BS_RETURN_NOT_OK(RunRound(cfg, preset, (*round)++, trace, &rr));
    phase->Merge(std::move(rr.phase));
    facts->setups.push_back(rr.setup);
    facts->space_amp.push_back(rr.space_amp);
    *verified += rr.verified_versions;
  }
  return Status::OK();
}

}  // namespace

WorkloadOutcome RunMixedSmall(const RunConfig& cfg) {
  WorkloadOutcome o;
  auto fail = [&](const std::string& what, const Status& st) {
    o.error = what + ": " + st.ToString();
    return std::move(o);
  };
  auto preset = wl::WorkloadSpec::Preset("mixed");
  if (!preset.ok()) return fail("mixed preset", preset.status());
  uint64_t fp = 0;
  for (size_t s = 0; s < kSlots; s++) {
    fp = blobseer::HashCombine(
        fp, wl::GenerateSchedule(SlotSpec(*preset, cfg.seed, s, 0))
                .Fingerprint());
  }
  o.record.emplace_back("schedule_fingerprint",
                        blobseer::StrFormat("%016llx", (unsigned long long)fp));
  o.record.emplace_back("store", "memory (no store I/O)");
  o.record.emplace_back("round_ops_per_slot", std::to_string(kRoundOps));

  uint64_t round = 0, verified = 0;
  PhaseResult base, traced;
  RunFacts facts, traced_facts;
  // One untimed round first: the process's allocator and the code paths
  // warm up, which a long-running deployment has long done.
  RoundResult warm;
  Status st = RunRound(cfg, *preset, round++, false, &warm);
  if (!st.ok()) return fail("warm-up round", st);
  verified += warm.verified_versions;
  const double phase_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  facts.setup_rss_mib = warm.setup_rss_mib;  // the process's first set-up
  st = RunRounds(cfg, *preset, phase_s, false, &round, &base, &facts,
                 &verified);
  if (!st.ok()) return fail("untraced rounds", st);
  if (cfg.trace) {
    st = RunRounds(cfg, *preset, phase_s, true, &round, &traced,
                   &traced_facts, &verified);
    if (!st.ok()) return fail("traced rounds", st);
  }
  o.record.emplace_back("rounds", std::to_string(round));
  o.record.emplace_back("verify_retained_versions", std::to_string(verified));
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
  const double ratio = Ratio(SteadyRate(traced, &Window::ops_per_s),
                             SteadyRate(base, &Window::ops_per_s));
  AddPerLayer(&o.report, traced, nullptr, ratio);
  const std::string path = cfg.workdir + "/spans-mixed_small.csv";
  st = DumpSpans(path, traced);
  if (!st.ok()) return fail("span dump", st);
  o.record.emplace_back("spans", path);
  return o;
}

}  // namespace perfbench
