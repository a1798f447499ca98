// Metric assembly shared by the workloads: layer counters, the end-to-end
// metrics of an untraced phase and the per-layer split of a traced one.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <unordered_map>

#include "pmanager/client.h"
#include "provider/client.h"
#include "src/bench.h"

namespace perfbench {

using blobseer::Result;
using blobseer::Status;
using blobseer::rpc::Method;

LayerCounters& LayerCounters::operator+=(const LayerCounters& o) {
  meta_hits += o.meta_hits;
  meta_misses += o.meta_misses;
  loc_hits += o.loc_hits;
  loc_misses += o.loc_misses;
  client_bytes_read += o.client_bytes_read;
  client_bytes_written += o.client_bytes_written;
  pl_syncs += o.pl_syncs;
  pl_bytes_written += o.pl_bytes_written;
  pl_io_submissions += o.pl_io_submissions;
  pl_read_syscalls += o.pl_read_syscalls;
  vm_published += o.vm_published;
  return *this;
}

LayerCounters LayerCounters::operator-(const LayerCounters& o) const {
  LayerCounters d;
  d.meta_hits = meta_hits - o.meta_hits;
  d.meta_misses = meta_misses - o.meta_misses;
  d.loc_hits = loc_hits - o.loc_hits;
  d.loc_misses = loc_misses - o.loc_misses;
  d.client_bytes_read = client_bytes_read - o.client_bytes_read;
  d.client_bytes_written = client_bytes_written - o.client_bytes_written;
  d.pl_syncs = pl_syncs - o.pl_syncs;
  d.pl_bytes_written = pl_bytes_written - o.pl_bytes_written;
  d.pl_io_submissions = pl_io_submissions - o.pl_io_submissions;
  d.pl_read_syscalls = pl_read_syscalls - o.pl_read_syscalls;
  d.vm_published = vm_published - o.vm_published;
  return d;
}

void AddClientCounters(blobseer::client::BlobClient& c, LayerCounters* out) {
  auto meta = c.meta().GetCacheStats();
  auto loc = c.locator().GetStats();
  auto cs = c.GetStats();
  out->meta_hits += meta.hits;
  out->meta_misses += meta.misses;
  out->loc_hits += loc.hits;
  out->loc_misses += loc.misses;
  out->client_bytes_read += cs.bytes_read;
  out->client_bytes_written += cs.bytes_written;
}

namespace {

// Every provider registered with the provider manager: the cluster's own
// and any the workload serves itself on the cluster's transport.
Result<std::vector<std::string>> ProviderAddresses(
    blobseer::core::EmbeddedCluster& cluster) {
  blobseer::pmanager::ProviderManagerClient pm(cluster.transport(),
                                               cluster.pmanager_address());
  auto dir = pm.FetchDirectory();
  if (!dir.ok()) return dir.status();
  std::vector<std::string> out;
  for (const auto& e : *dir) out.push_back(e.address);
  return out;
}

// The phase as one window: a round, or a phase shorter than one window.
Window WholePhase(const PhaseResult& p) {
  Window w;
  w.ops_per_s = double(p.ops.size()) / p.wall_s;
  w.read_bytes_per_s = double(p.read_bytes) / p.wall_s;
  w.update_bytes_per_s = double(p.update_bytes) / p.wall_s;
  for (const auto& op : p.ops)
    if (op.kind == OpKind::kRead) w.read_us.Add(op.us());
  return w;
}

}  // namespace

Status ReadServerCounters(blobseer::core::EmbeddedCluster& cluster,
                          LayerCounters* out) {
  auto addrs = ProviderAddresses(cluster);
  if (!addrs.ok()) return addrs.status();
  blobseer::provider::ProviderClient providers(cluster.transport(), 1);
  for (const auto& addr : *addrs) {
    auto st = providers.FetchStats(addr);
    if (!st.ok()) return st.status();
    out->pl_syncs += st->syncs;
    out->pl_bytes_written += st->bytes_written;
    out->pl_io_submissions += st->io_submissions;
    out->pl_read_syscalls += st->read_syscalls;
  }
  blobseer::vmanager::VersionManagerClient vm(cluster.transport(),
                                              cluster.vmanager_address(), 1);
  auto vs = vm.GetStats();
  if (!vs.ok()) return vs.status();
  out->vm_published += vs->published;
  return Status::OK();
}

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  FILE* f = std::fopen("/proc/stat", "r");
  if (!f) return t;
  // cpu  user nice system idle iowait irq softirq steal guest guest_nice
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    t.steal = v[7];
    for (auto x : v) t.total += x;
  }
  std::fclose(f);
  return t;
}

double StealShare(const CpuTicks& from, const CpuTicks& to) {
  return Ratio(double(to.steal - from.steal), double(to.total - from.total));
}

WindowMarks::WindowMarks(int64_t start_ns) {
  marks_.push_back(ReadCpuTicks());
  thread_ = std::thread([this, start_ns] {
    const auto epoch = std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(start_ns));
    std::unique_lock<std::mutex> lock(mu_);
    for (int64_t k = 1;; k++) {
      const auto at = epoch + std::chrono::nanoseconds(k * kWindowNs);
      if (cv_.wait_until(lock, at, [this] { return stop_; })) return;
      marks_.push_back(ReadCpuTicks());
    }
  });
}

WindowMarks::~WindowMarks() { Stop(); }

std::vector<CpuTicks> WindowMarks::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  return marks_;
}

void PhaseResult::CutWindows(int64_t start_ns, int64_t end_ns,
                             const std::vector<CpuTicks>& marks) {
  size_t n = size_t(std::max<int64_t>(0, (end_ns - start_ns) / kWindowNs));
  n = std::min(n, marks.empty() ? 0 : marks.size() - 1);
  const size_t first = windows.size();
  windows.resize(first + n);  // all rates start at 0
  for (size_t i = 0; i < n; i++)
    windows[first + i].steal = StealShare(marks[i], marks[i + 1]);
  const double secs = double(kWindowNs) / 1e9;
  for (const auto& op : ops) {
    if (op.end_ns < start_ns) continue;
    const size_t i = size_t((op.end_ns - start_ns) / kWindowNs);
    if (i >= n) continue;
    Window& w = windows[first + i];
    w.ops_per_s += 1 / secs;
    if (op.kind == OpKind::kRead) {
      w.read_bytes_per_s += double(op.bytes) / secs;
      w.read_us.Add(op.us());
    } else {
      w.update_bytes_per_s += double(op.bytes) / secs;
    }
  }
}

void PhaseResult::Merge(PhaseResult o) {
  ops.insert(ops.end(), o.ops.begin(), o.ops.end());
  windows.insert(windows.end(), o.windows.begin(), o.windows.end());
  spans.insert(spans.end(), o.spans.begin(), o.spans.end());
  wall_s += o.wall_s;
  attempted += o.attempted;
  failed += o.failed;
  wrong_bytes += o.wrong_bytes;
  read_bytes += o.read_bytes;
  update_bytes += o.update_bytes;
  counters += o.counters;
}

Status RunSlots(blobseer::core::EmbeddedCluster& cluster, double seconds,
                bool trace, const SlotLoop& loop, PhaseResult* out,
                bool one_window) {
  LayerCounters before, after;
  BS_RETURN_NOT_OK(ReadServerCounters(cluster, &before));
  std::vector<std::unique_ptr<TracingTransport>> tracers;
  for (size_t s = 0; s < kSlots; s++)
    tracers.push_back(std::make_unique<TracingTransport>(cluster.transport()));
  std::vector<PhaseResult> slots(kSlots);
  const int64_t start = NowNs();
  const int64_t deadline = start + int64_t(seconds * 1e9);
  WindowMarks marks(start);
  std::vector<std::thread> threads;
  for (size_t s = 0; s < kSlots; s++) {
    threads.emplace_back([&, s] {
      TracingTransport* tracer = trace ? tracers[s].get() : nullptr;
      blobseer::rpc::Transport* t =
          tracer ? static_cast<blobseer::rpc::Transport*>(tracer)
                 : cluster.transport();
      loop(s, t, tracer, deadline, &slots[s]);
    });
  }
  for (auto& th : threads) th.join();
  const int64_t end = NowNs();
  const std::vector<CpuTicks> ticks = marks.Stop();
  PhaseResult phase;
  phase.wall_s = double(end - start) / 1e9;
  for (size_t s = 0; s < kSlots; s++) {
    slots[s].spans = tracers[s]->TakeSpans();
    phase.Merge(std::move(slots[s]));
  }
  if (one_window) {
    Window w = WholePhase(phase);
    w.steal = StealShare(ticks.front(), ReadCpuTicks());
    phase.windows.push_back(std::move(w));
  } else {
    phase.CutWindows(start, end, ticks);
  }
  BS_RETURN_NOT_OK(ReadServerCounters(cluster, &after));
  phase.counters += after - before;
  *out = std::move(phase);
  return Status::OK();
}

Status TimeSetup(const std::function<Status()>& deploy,
                 std::vector<SetupSample>* out) {
  const CpuTicks c0 = ReadCpuTicks();
  const int64_t t0 = NowNs();
  Status st = deploy();
  const int64_t t1 = NowNs();
  out->push_back(SetupSample{double(t1 - t0) / 1e9,
                             StealShare(c0, ReadCpuTicks())});
  return st;
}

blobseer::client::ClientOptions SlotClientOptions(unsigned nproc,
                                                  uint32_t replication) {
  blobseer::client::ClientOptions o;
  o.replication = replication;
  const size_t per_slot = std::max<size_t>(1, nproc / kSlots);
  o.io_threads = per_slot;
  o.channels_per_endpoint = per_slot;
  return o;
}

std::unique_ptr<blobseer::client::BlobClient> MakeClient(
    blobseer::core::EmbeddedCluster& cluster, blobseer::rpc::Transport* t,
    const blobseer::client::ClientOptions& options) {
  return std::make_unique<blobseer::client::BlobClient>(
      t, cluster.vmanager_address(), cluster.pmanager_address(),
      cluster.dht_addresses(), options);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

Status StoredBytes(blobseer::core::EmbeddedCluster& cluster, uint64_t* bytes) {
  auto addrs = ProviderAddresses(cluster);
  if (!addrs.ok()) return addrs.status();
  blobseer::provider::ProviderClient providers(cluster.transport(), 1);
  uint64_t keys = 0, mbytes = 0;
  BS_RETURN_NOT_OK(cluster.TotalMetadataUsage(&keys, &mbytes));
  *bytes = mbytes;
  for (const auto& addr : *addrs) {
    uint64_t pages = 0, pbytes = 0;
    BS_RETURN_NOT_OK(providers.Stats(addr, &pages, &pbytes));
    *bytes += pbytes;
  }
  return Status::OK();
}

double PeakRssMiB() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
/// A window or set-up that lost at most this share of the machine's CPU
/// time to the hypervisor (steal) measured the program, not its neighbours.
constexpr double kSteadySteal = 0.02;

// The steady entries of `v` (windows or set-ups), or when fewer than half
// of them are, the least-stolen half.
template <typename T>
std::vector<const T*> Steadiest(const std::vector<T>& v) {
  std::vector<const T*> w;
  for (const auto& x : v) w.push_back(&x);
  std::stable_sort(w.begin(), w.end(),
                   [](const T* a, const T* b) { return a->steal < b->steal; });
  size_t keep = 0;
  while (keep < w.size() && w[keep]->steal <= kSteadySteal) keep++;
  w.resize(std::max(keep, (w.size() + 1) / 2));
  return w;
}

}  // namespace

double SteadyRate(const PhaseResult& p, double Window::*rate) {
  std::vector<double> v;
  for (const Window* w : Steadiest(p.windows)) v.push_back(w->*rate);
  return v.empty() ? WholePhase(p).*rate : Median(v);
}

void AddEndToEnd(Report* r, const PhaseResult& p, const RunFacts& f) {
  std::vector<double> setup_s;
  for (const SetupSample* x : Steadiest(f.setups)) setup_s.push_back(x->s);
  r->Add("setup_s", Median(setup_s), "s", f.setups.size(),
         "median of " + std::to_string(setup_s.size()) + " steady of " +
             std::to_string(f.setups.size()) + " set-ups");

  // Rates and read latencies come from the steady windows: a rate is the
  // median of the per-window rates, read_p50_us the p50 of their reads and
  // read_p99_us the median of their per-window p99s. A phase shorter than
  // one window is one window.
  const Window whole = WholePhase(p);
  std::vector<const Window*> kept = Steadiest(p.windows);
  if (kept.empty()) kept.push_back(&whole);
  const std::string windows =
      "median of " + std::to_string(kept.size()) + " steady of " +
      std::to_string(std::max<size_t>(1, p.windows.size())) + " windows";

  auto absent = [&](const std::string& kind) {
    const std::string note = "no " + kind + "s in this workload";
    r->AddAbsent(kind + "_mbps", "MiB/s", note);
    r->AddAbsent(kind + "_p50_us", "us", note);
    r->AddAbsent(kind + "_p99_us", "us", note);
  };
  Samples updates;
  uint64_t reads = 0;
  for (const auto& op : p.ops) {
    if (op.kind == OpKind::kRead) {
      reads++;
    } else {
      updates.Add(op.us());
    }
  }
  r->Add("ops_per_s", SteadyRate(p, &Window::ops_per_s), "ops/s",
         p.ops.size(), windows);
  if (reads == 0) {
    absent("read");
  } else {
    r->Add("read_mbps", SteadyRate(p, &Window::read_bytes_per_s) / kMiB,
           "MiB/s", reads, windows);
    Samples kept_reads;
    std::vector<double> p99s;
    for (const Window* w : kept) {
      kept_reads.Append(w->read_us);
      if (auto v = w->read_us.Percentile(0.99)) p99s.push_back(*v);
    }
    r->AddPercentile("read_p50_us", kept_reads, 0.5, "us");
    if (p99s.empty()) {
      r->AddPercentile("read_p99_us", kept_reads, 0.99, "us");
    } else {
      r->Add("read_p99_us", Median(p99s), "us", kept_reads.size(),
             "median of " + std::to_string(p99s.size()) + " window p99s");
    }
  }
  if (updates.size() == 0) {
    absent("update");
  } else {
    r->Add("update_mbps", SteadyRate(p, &Window::update_bytes_per_s) / kMiB,
           "MiB/s", updates.size(), windows);
    r->AddPercentile("update_p50_us", updates, 0.5, "us");
    r->AddPercentile("update_p99_us", updates, 0.99, "us");
  }
  r->Add("failed_ratio",
         Ratio(double(p.failed + p.wrong_bytes), double(p.attempted)),
         "ratio", p.attempted);
  r->Add("space_amp", Median(f.space_amp), "ratio", f.space_amp.size());
  r->Add("peak_rss_mb", f.peak_rss_mib, "MiB", 1);
  r->Add("setup_rss_mb", f.setup_rss_mib, "MiB", 1,
         "peak RSS up to the end of the first set-up");
  double steal = 0;
  for (const auto& w : p.windows) steal += w.steal;
  r->Add("steal_share", Ratio(steal, double(p.windows.size())), "ratio",
         p.windows.size(), "CPU time the hypervisor took, mean over windows");
}

namespace {

bool IsDhtRead(Method m) {
  return m == Method::kDhtGet || m == Method::kDhtMultiGet;
}
bool IsDhtWrite(Method m) {
  return m == Method::kDhtPut || m == Method::kDhtCas;
}

// Per-layer accounting of one traced phase.
struct LayerTally {
  uint64_t reads = 0, updates = 0;
  // Calls per op kind.
  uint64_t vm_in_read = 0, vm_in_update = 0, pm_in_update = 0;
  uint64_t meta_gets_in_read = 0, meta_puts_in_update = 0;
  uint64_t loc_gets_in_read = 0, loc_writes_in_update = 0;
  uint64_t prov_reads_in_read = 0, prov_writes_in_update = 0;
  uint64_t attributed = 0, unattributed = 0, failed = 0;
  uint64_t provider_bytes = 0;
  // Time (ns) summed over ops.
  int64_t op_ns = 0, self_ns = 0;
  int64_t busy_ns[kNumLayers] = {};
  Samples read_self_us, update_self_us;
  // Call latencies of the spans the timed ops caused.
  Samples vm_call, vm_await, pm_call, meta_get, meta_put, loc_call;
  Samples prov_read, prov_write, meta_all, prov_all;
};

LayerTally Tally(const PhaseResult& p) {
  LayerTally t;
  std::unordered_map<uint64_t, size_t> op_index;
  op_index.reserve(p.ops.size());
  for (size_t i = 0; i < p.ops.size(); i++) op_index[p.ops[i].id] = i;
  std::vector<std::vector<const Span*>> by_op(p.ops.size());

  for (const auto& s : p.spans) {
    if (!s.ok) t.failed++;
    auto it = s.op ? op_index.find(s.op) : op_index.end();
    if (it == op_index.end()) {
      t.unattributed++;
      continue;
    }
    t.attributed++;
    by_op[it->second].push_back(&s);
    const double us = s.us();
    switch (s.layer) {
      case Layer::kVmanager:
        (s.method == Method::kVmAwaitPublished ? t.vm_await : t.vm_call)
            .Add(us);
        break;
      case Layer::kPmanager:
        t.pm_call.Add(us);
        break;
      case Layer::kMeta:
        t.meta_all.Add(us);
        if (IsDhtRead(s.method)) t.meta_get.Add(us);
        if (IsDhtWrite(s.method)) t.meta_put.Add(us);
        break;
      case Layer::kLocator:
        t.loc_call.Add(us);
        break;
      case Layer::kProvider:
        t.prov_all.Add(us);
        if (s.method == Method::kProviderRead) t.prov_read.Add(us);
        if (s.method == Method::kProviderWrite) t.prov_write.Add(us);
        break;
      default:
        break;
    }
  }

  std::vector<std::pair<int64_t, int64_t>> all, layer;
  for (size_t i = 0; i < p.ops.size(); i++) {
    const OpRecord& op = p.ops[i];
    const bool read = op.kind == OpKind::kRead;
    (read ? t.reads : t.updates)++;
    all.clear();
    for (const Span* s : by_op[i]) {
      all.emplace_back(s->start_ns, s->end_ns);
      const Method m = s->method;
      switch (s->layer) {
        case Layer::kVmanager:
          (read ? t.vm_in_read : t.vm_in_update)++;
          break;
        case Layer::kPmanager:
          if (!read) t.pm_in_update++;
          break;
        case Layer::kMeta:
          if (read && IsDhtRead(m)) t.meta_gets_in_read++;
          if (!read && IsDhtWrite(m)) t.meta_puts_in_update++;
          break;
        case Layer::kLocator:
          if (read && IsDhtRead(m)) t.loc_gets_in_read++;
          if (!read && IsDhtWrite(m)) t.loc_writes_in_update++;
          break;
        case Layer::kProvider:
          if (read && m == Method::kProviderRead) t.prov_reads_in_read++;
          if (!read && m == Method::kProviderWrite) t.prov_writes_in_update++;
          if (m == Method::kProviderRead || m == Method::kProviderWrite)
            t.provider_bytes += s->req_bytes + s->rsp_bytes;
          break;
        default:
          break;
      }
    }
    const int64_t dur = op.end_ns - op.start_ns;
    const int64_t self = dur - UnionLength(&all, op.start_ns, op.end_ns);
    t.op_ns += dur;
    t.self_ns += self;
    (read ? t.read_self_us : t.update_self_us).Add(double(self) / 1e3);
    for (size_t l = 0; l < kNumLayers; l++) {
      layer.clear();
      for (const Span* s : by_op[i])
        if (size_t(s->layer) == l) layer.emplace_back(s->start_ns, s->end_ns);
      if (!layer.empty())
        t.busy_ns[l] += UnionLength(&layer, op.start_ns, op.end_ns);
    }
  }
  return t;
}

// Per-layer percentiles are always emitted (the traced run reports every
// layer metric); a refused or empty one reads 0 and says so.
void AddLayerPercentile(Report* r, const std::string& name, const Samples& s,
                        double p) {
  auto v = s.Percentile(p);
  if (v) {
    r->Add(name, *v, "us", s.size());
  } else {
    r->Add(name, 0, "us", s.size(), "0 = too few samples");
  }
}

}  // namespace

void AddPerLayer(Report* r, const PhaseResult& traced,
                 const PhaseResult* inproc, double overhead_ratio) {
  const LayerTally t = Tally(traced);
  const LayerCounters& c = traced.counters;
  const double reads = double(t.reads), updates = double(t.updates);
  const double ops = reads + updates;
  const double op_ns = double(t.op_ns);
  auto busy = [&](Layer l) {
    return Ratio(double(t.busy_ns[size_t(l)]), op_ns);
  };
  const double user_bytes = double(traced.read_bytes + traced.update_bytes);

  AddLayerPercentile(r, "client.read_self_us", t.read_self_us, 0.5);
  AddLayerPercentile(r, "client.update_self_us", t.update_self_us, 0.5);
  r->Add("client.self_share", Ratio(double(t.self_ns), op_ns), "ratio",
         t.reads + t.updates);

  r->Add("vmanager.calls_per_read", Ratio(double(t.vm_in_read), reads),
         "calls", t.reads);
  r->Add("vmanager.calls_per_update", Ratio(double(t.vm_in_update), updates),
         "calls", t.updates);
  AddLayerPercentile(r, "vmanager.call_p50_us", t.vm_call, 0.5);
  r->Add("vmanager.busy_share", busy(Layer::kVmanager), "ratio",
         t.reads + t.updates);
  AddLayerPercentile(r, "vmanager.await_p50_us", t.vm_await, 0.5);
  AddLayerPercentile(r, "vmanager.await_p99_us", t.vm_await, 0.99);

  r->Add("pmanager.calls_per_update", Ratio(double(t.pm_in_update), updates),
         "calls", t.updates);
  AddLayerPercentile(r, "pmanager.call_p50_us", t.pm_call, 0.5);

  r->Add("meta.gets_per_read", Ratio(double(t.meta_gets_in_read), reads),
         "calls", t.reads);
  r->Add("meta.puts_per_update", Ratio(double(t.meta_puts_in_update), updates),
         "calls", t.updates);
  AddLayerPercentile(r, "meta.get_p50_us", t.meta_get, 0.5);
  AddLayerPercentile(r, "meta.put_p50_us", t.meta_put, 0.5);
  r->Add("meta.busy_share", busy(Layer::kMeta), "ratio", t.reads + t.updates);
  r->Add("meta.cache_hit_ratio",
         Ratio(double(c.meta_hits), double(c.meta_hits + c.meta_misses)),
         "ratio", c.meta_hits + c.meta_misses);

  r->Add("locator.gets_per_read", Ratio(double(t.loc_gets_in_read), reads),
         "calls", t.reads);
  r->Add("locator.writes_per_update",
         Ratio(double(t.loc_writes_in_update), updates), "calls", t.updates);
  AddLayerPercentile(r, "locator.call_p50_us", t.loc_call, 0.5);
  r->Add("locator.busy_share", busy(Layer::kLocator), "ratio",
         t.reads + t.updates);
  r->Add("locator.cache_hit_ratio",
         Ratio(double(c.loc_hits), double(c.loc_hits + c.loc_misses)), "ratio",
         c.loc_hits + c.loc_misses);

  r->Add("provider.reads_per_read", Ratio(double(t.prov_reads_in_read), reads),
         "calls", t.reads);
  r->Add("provider.writes_per_update",
         Ratio(double(t.prov_writes_in_update), updates), "calls", t.updates);
  AddLayerPercentile(r, "provider.read_p50_us", t.prov_read, 0.5);
  AddLayerPercentile(r, "provider.read_p99_us", t.prov_read, 0.99);
  AddLayerPercentile(r, "provider.write_p50_us", t.prov_write, 0.5);
  AddLayerPercentile(r, "provider.write_p99_us", t.prov_write, 0.99);
  r->Add("provider.busy_share", busy(Layer::kProvider), "ratio",
         t.reads + t.updates);
  r->Add("provider.bytes_per_user_byte",
         Ratio(double(t.provider_bytes), user_bytes), "ratio",
         traced.read_bytes + traced.update_bytes);

  r->Add("pagelog.syncs_per_update", Ratio(double(c.pl_syncs), updates),
         "count", t.updates);
  r->Add("pagelog.bytes_written_per_user_byte",
         Ratio(double(c.pl_bytes_written), double(traced.update_bytes)),
         "ratio", traced.update_bytes);
  r->Add("pagelog.io_submissions_per_update",
         Ratio(double(c.pl_io_submissions), updates), "count", t.updates);
  r->Add("pagelog.read_syscalls_per_read",
         Ratio(double(c.pl_read_syscalls), reads), "count", t.reads);

  r->Add("rpc.calls_per_op", Ratio(double(t.attributed), ops), "calls",
         t.attributed + t.unattributed,
         "unattributed calls: " + std::to_string(t.unattributed));
  r->Add("rpc.failed_ratio",
         Ratio(double(t.failed), double(traced.spans.size())), "ratio",
         traced.spans.size());

  // TCP call p50 minus the same layer's call p50 in the in-process replay,
  // whose inline dispatch makes the span the handler's own time.
  const LayerTally* base = nullptr;
  LayerTally replay;
  if (inproc) {
    replay = Tally(*inproc);
    base = &replay;
  }
  auto overhead = [&](const char* name, const Samples& tcp,
                      const Samples LayerTally::*field) {
    auto a = tcp.Percentile(0.5);
    auto b = base ? (base->*field).Percentile(0.5) : std::nullopt;
    if (a && b) {
      r->Add(name, *a - *b, "us", tcp.size());
    } else {
      r->Add(name, 0, "us", 0, "0 = no wire in this workload");
    }
  };
  overhead("rpc.meta_overhead_us", t.meta_all, &LayerTally::meta_all);
  overhead("rpc.locator_overhead_us", t.loc_call, &LayerTally::loc_call);
  overhead("rpc.provider_overhead_us", t.prov_all, &LayerTally::prov_all);
  overhead("rpc.vmanager_overhead_us", t.vm_call, &LayerTally::vm_call);

  r->Add("trace.overhead_ratio", overhead_ratio, "ratio", 2,
         "primary metric, traced / untraced");

  // Cross-checks from the remaining getters (printed, not in BENCHMARK.json):
  // bytes the clients moved per user byte the benchmark counted, and
  // snapshots published per update.
  r->Add("client.bytes_per_user_byte",
         Ratio(double(c.client_bytes_read + c.client_bytes_written),
               user_bytes),
         "ratio", traced.read_bytes + traced.update_bytes,
         "includes verification reads outside timed ops");
  r->Add("vmanager.publishes_per_update",
         Ratio(double(c.vm_published), updates), "ratio", t.updates);
}

Status DumpSpans(const std::string& path, const PhaseResult& p) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return Status::IOError("cannot write " + path);
  std::fprintf(f, "op,method,layer,start_ns,end_ns,ok,req_bytes,rsp_bytes\n");
  for (const auto& s : p.spans) {
    std::fprintf(f, "%llu,%u,%s,%lld,%lld,%d,%u,%u\n",
                 (unsigned long long)s.op, unsigned(s.method),
                 LayerName(s.layer), (long long)s.start_ns,
                 (long long)s.end_ns, s.ok ? 1 : 0, s.req_bytes, s.rsp_bytes);
  }
  if (std::fclose(f) != 0) return Status::IOError("short write " + path);
  return Status::OK();
}

}  // namespace perfbench
