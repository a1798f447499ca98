// Shared vocabulary of the three benchmark workloads: run configuration,
// per-op records, per-phase results and the layer counters read through
// public getters before and after a phase.
#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "client/blob_client.h"
#include "core/cluster.h"
#include "src/report.h"
#include "src/trace.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout (stores, span dumps).
  std::string workdir;
  unsigned nproc = 1;
};

/// Closed-loop slots per workload; each keeps one op in flight.
inline constexpr size_t kSlots = 4;

enum class OpKind : uint8_t { kRead, kUpdate };

/// One completed timed op.
struct OpRecord {
  uint64_t id = 0;  ///< unique within a phase; spans refer to it
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  OpKind kind = OpKind::kRead;
  uint64_t bytes = 0;  ///< user bytes read or written
  double us() const { return double(end_ns - start_ns) / 1e3; }
};

/// The rates measured over one slice of a phase. Rates are reported as the
/// median over windows, so a burst of interference in one window moves the
/// result by at most one rank.
struct Window {
  double ops_per_s = 0;
  double read_bytes_per_s = 0;
  double update_bytes_per_s = 0;
  Samples read_us;  ///< latencies of the reads that completed in it
  /// Share of the machine's CPU time the hypervisor took (steal) meanwhile.
  double steal = 0;
};

/// Machine-wide CPU time counters from /proc/stat, in clock ticks.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTicks ReadCpuTicks();
/// Share of the CPU time between two readings that was stolen.
double StealShare(const CpuTicks& from, const CpuTicks& to);

/// Reads CpuTicks at every window boundary of a timed phase (start_ns,
/// start_ns + kWindowNs, ...) from a background thread until Stop.
class WindowMarks {
 public:
  explicit WindowMarks(int64_t start_ns);
  ~WindowMarks();
  WindowMarks(const WindowMarks&) = delete;
  WindowMarks& operator=(const WindowMarks&) = delete;
  /// Stops sampling and returns the readings, one per boundary passed.
  std::vector<CpuTicks> Stop();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;                // guarded by mu_
  std::vector<CpuTicks> marks_;      // guarded by mu_
  std::thread thread_;
};

/// Window length of the time-sliced workloads: long enough that a window
/// holds the 1000 reads a p99 needs.
inline constexpr int64_t kWindowNs = 2000000000;

/// Op id: slot in the top bits, a per-slot sequence below.
inline uint64_t OpId(size_t slot, uint64_t seq) {
  return (uint64_t(slot + 1) << 48) | seq;
}

/// Counters that exist only inside a layer, read through public getters.
struct LayerCounters {
  // MetaClient::GetCacheStats / LocationIndex::GetStats (slot clients).
  uint64_t meta_hits = 0, meta_misses = 0;
  uint64_t loc_hits = 0, loc_misses = 0;
  // BlobClient::GetStats (slot clients).
  uint64_t client_bytes_read = 0, client_bytes_written = 0;
  // Provider Stats RPC, summed over providers (pagelog counters).
  uint64_t pl_syncs = 0, pl_bytes_written = 0, pl_io_submissions = 0;
  uint64_t pl_read_syscalls = 0;
  // VersionManagerClient::GetStats.
  uint64_t vm_published = 0;

  LayerCounters& operator+=(const LayerCounters& o);
  LayerCounters operator-(const LayerCounters& o) const;
};

/// Adds one slot client's client-side counters.
void AddClientCounters(blobseer::client::BlobClient& c, LayerCounters* out);
/// Reads the server-side counters (provider Stats RPC on every provider
/// the provider manager lists, vmanager stats) through the cluster's own
/// transport.
blobseer::Status ReadServerCounters(blobseer::core::EmbeddedCluster& cluster,
                                    LayerCounters* out);

/// Everything one timed phase produced.
struct PhaseResult {
  std::vector<OpRecord> ops;
  double wall_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;       ///< ops that returned an error
  uint64_t wrong_bytes = 0;  ///< reads or sweeps that returned wrong bytes
  uint64_t read_bytes = 0;   ///< verified user bytes read
  uint64_t update_bytes = 0; ///< user bytes written and published
  std::vector<Window> windows;
  std::vector<Span> spans;   ///< traced phases only
  LayerCounters counters;    ///< deltas over the phase
  void Merge(PhaseResult o);
  /// Cuts [start_ns, end_ns) into whole kWindowNs windows and bins the ops
  /// by completion time; the partial tail window is left out. `marks` are
  /// the WindowMarks readings of the phase.
  void CutWindows(int64_t start_ns, int64_t end_ns,
                  const std::vector<CpuTicks>& marks);
};

/// One slot's closed loop: runs ops until `deadline`, recording them in
/// `r`. `t` is the transport its clients use (the tracing decorator in a
/// traced phase); `tracer` marks op boundaries and is null when untraced.
/// Client-side counters go into `r->counters`.
using SlotLoop = std::function<void(size_t slot, blobseer::rpc::Transport* t,
                                    TracingTransport* tracer,
                                    int64_t deadline, PhaseResult* r)>;

/// Runs one timed phase of kSlots slots, each on its own thread: reads the
/// server counters before and after, cuts the phase into windows (or, with
/// `one_window`, makes the whole phase one window) and merges the slots'
/// ops, spans and counters into `out`.
blobseer::Status RunSlots(blobseer::core::EmbeddedCluster& cluster,
                          double seconds, bool trace, const SlotLoop& loop,
                          PhaseResult* out, bool one_window = false);

/// What a workload hands back to main: the metric report plus the run
/// record (store filesystem, schedule fingerprint, ...).
struct WorkloadOutcome {
  /// Set when the workload could not run (cluster start, set-up, I/O);
  /// no metric is reported then.
  std::string error;
  Report report;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong_bytes = 0;
  std::vector<std::pair<std::string, std::string>> record;
};

/// Slot clients: replication set explicitly (they bypass
/// EmbeddedCluster::NewClient), and executor threads and connections per
/// endpoint capped so that all slots together use at most nproc of each.
blobseer::client::ClientOptions SlotClientOptions(unsigned nproc,
                                                  uint32_t replication);

/// A client wired to `cluster` over `transport` (the cluster's own, or a
/// tracing decorator around it).
std::unique_ptr<blobseer::client::BlobClient> MakeClient(
    blobseer::core::EmbeddedCluster& cluster, blobseer::rpc::Transport* t,
    const blobseer::client::ClientOptions& options);

/// Median of a handful of values (set-up repeats); 0 when empty.
double Median(std::vector<double> v);

/// Provider (every one the provider manager lists) + DHT bytes at this
/// moment.
blobseer::Status StoredBytes(blobseer::core::EmbeddedCluster& cluster,
                             uint64_t* bytes);

/// Median of a per-window rate over the phase's steady windows (those the
/// hypervisor took at most 2% of the CPU from, or the least-stolen half);
/// the whole phase's rate when it was shorter than one window.
double SteadyRate(const PhaseResult& p, double Window::*rate);

/// One timed set-up and the share of the CPU the hypervisor took meanwhile.
struct SetupSample {
  double s = 0;
  double steal = 0;
};

/// Times `deploy` and appends the sample to `out`; returns its status.
blobseer::Status TimeSetup(const std::function<blobseer::Status()>& deploy,
                           std::vector<SetupSample>* out);

/// Per-run facts the end-to-end metrics need besides the timed phase.
struct RunFacts {
  /// One sample per set-up repeat (or round); setup_s is the median over
  /// the steady ones, chosen like the steady windows.
  std::vector<SetupSample> setups;
  /// One value per deployment measured (or round); the median is reported.
  std::vector<double> space_amp;
  /// Peak RSS from process start to the end of the first set-up.
  double setup_rss_mib = 0;
  /// Peak RSS from process start to the end of the timed phase.
  double peak_rss_mib = 0;
};

/// The eleven end-to-end metrics, plus setup_rss_mb and steal_share.
/// Metrics of an op kind the workload does not issue are n/a.
void AddEndToEnd(Report* r, const PhaseResult& p, const RunFacts& f);

/// Per-layer metrics of a traced phase. `inproc` is the in-process replay
/// (read_tcp only) the rpc.*_overhead_us values are measured against.
void AddPerLayer(Report* r, const PhaseResult& traced,
                 const PhaseResult* inproc, double overhead_ratio);

/// Writes a phase's spans as CSV (one line per span) for offline analysis.
blobseer::Status DumpSpans(const std::string& path, const PhaseResult& p);

/// Peak resident set size of this process so far, MiB.
double PeakRssMiB();

WorkloadOutcome RunReadTcp(const RunConfig& cfg);
WorkloadOutcome RunAppendLog(const RunConfig& cfg);
WorkloadOutcome RunMixedSmall(const RunConfig& cfg);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
