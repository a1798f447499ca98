// Tracing from outside the program: a decorator around rpc::Transport that
// records one span per Channel::Call / CallAsync, and the interval
// accounting that turns spans into per-layer busy and self time.
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/slice.h"
#include "rpc/transport.h"

namespace perfbench {

/// The module (under src/) a call lands in. DHT calls are split by the
/// namespace tag of their key: 'N' tree nodes (meta), 'L' location entries
/// (locator), 'H' content hashes (dedup).
enum class Layer : uint8_t {
  kVmanager,
  kPmanager,
  kMeta,
  kLocator,
  kDedup,
  kProvider,
  kOther,
};
inline constexpr size_t kNumLayers = 7;
const char* LayerName(Layer l);

/// Classifies one request by method and, for DHT methods, by decoding the
/// request key with the dht/messages.h structs.
Layer ClassifyCall(blobseer::rpc::Method method, blobseer::Slice request);

/// Monotonic nanoseconds (std::chrono::steady_clock).
int64_t NowNs();

struct Span {
  uint64_t op = 0;  ///< op that caused the call; 0 = unattributed
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t req_bytes = 0;
  uint32_t rsp_bytes = 0;
  blobseer::rpc::Method method{};
  Layer layer = Layer::kOther;
  bool ok = true;
  double us() const { return double(end_ns - start_ns) / 1e3; }
};

/// Decorates a transport: channels it opens record a span per call into
/// this object. One decorator serves one slot, which keeps a single op in
/// flight and marks it with BeginOp/EndOp, so every span started in between
/// belongs to that op. Spans stay in memory until TakeSpans.
class TracingTransport : public blobseer::rpc::Transport {
 public:
  explicit TracingTransport(blobseer::rpc::Transport* inner) : inner_(inner) {}

  blobseer::Result<std::string> Serve(
      const std::string& address,
      std::shared_ptr<blobseer::rpc::ServiceHandler> handler) override;
  blobseer::Status StopServing(const std::string& address) override;
  blobseer::Result<std::shared_ptr<blobseer::rpc::Channel>> Connect(
      const std::string& address) override;
  bool binds_at_connect() const override { return inner_->binds_at_connect(); }

  void BeginOp(uint64_t op) { op_.store(op, std::memory_order_release); }
  void EndOp() { op_.store(0, std::memory_order_release); }
  uint64_t current_op() const { return op_.load(std::memory_order_acquire); }

  void Record(const Span& s);
  std::vector<Span> TakeSpans();

 private:
  blobseer::rpc::Transport* inner_;
  std::atomic<uint64_t> op_{0};
  std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Length of the union of `intervals` clipped to [lo, hi): overlapping
/// spans are counted once. Sorts `intervals` in place.
int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>>* intervals,
                    int64_t lo, int64_t hi);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
