// Negative controls for the benchmark's own checks: every output checker is
// fed a flipped byte and must reject it, and the span accounting must count
// the union of overlapping child spans once. Exit status 0 = all passed.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "dht/messages.h"
#include "src/checks.h"
#include "src/trace.h"
#include "workload/generator.h"
#include "workload/runner.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
      failures++;                                                     \
    }                                                                 \
  } while (0)

using namespace perfbench;
namespace rpc = blobseer::rpc;

// read_tcp's checker: the pattern at an absolute offset.
void TestPatternChecker() {
  const uint64_t tag = 0x1234567;
  const uint64_t offset = 3 << 20;
  std::string buf(1 << 20, '\0');
  FillPattern(tag, offset, buf.data(), buf.size());
  EXPECT(CheckPattern(tag, offset, buf.data(), buf.size()) == kAllMatch);
  for (size_t pos : {size_t(0), size_t(4097), buf.size() - 1}) {
    std::string bad = buf;
    bad[pos] ^= 0x01;
    EXPECT(CheckPattern(tag, offset, bad.data(), bad.size()) == pos);
  }
  // The right bytes at the wrong offset are wrong too.
  EXPECT(CheckPattern(tag, offset + 8, buf.data(), buf.size()) != kAllMatch);
}

// append_log's checkers: a reader's self-describing slot, and the final
// sweep's comparison with the payload that received the version.
void TestTaggedChecker() {
  const uint64_t tag = AppendTag(42, 1, 7);
  EXPECT(TagWriter(tag) == 1);
  const std::string good = MakeTaggedPayload(tag, 1 << 20);
  uint64_t found = 0;
  EXPECT(CheckTaggedPayload(good.data(), good.size(), &found) == kAllMatch);
  EXPECT(found == tag);
  for (size_t pos : {size_t(0), size_t(7), size_t(8), good.size() - 1}) {
    std::string bad = good;
    bad[pos] ^= 0x80;
    EXPECT(CheckTaggedPayload(bad.data(), bad.size(), &found) != kAllMatch);
    EXPECT(bad != MakeTaggedPayload(tag, bad.size()));
  }
  // Another writer's intact payload passes the slot check but not the sweep.
  const uint64_t other_tag = AppendTag(42, 2, 7);
  const std::string other = MakeTaggedPayload(other_tag, 1 << 20);
  EXPECT(CheckTaggedPayload(other.data(), other.size(), &found) == kAllMatch);
  EXPECT(other != MakeTaggedPayload(tag, other.size()));
  // Nor the per-read check: version 9 was produced by `tag`, so finding the
  // other payload there, or a version nobody appended, is wrong.
  const TagOfVersion produced = {{8, other_tag}, {9, tag}};
  EXPECT(CountMisattributed({{9, tag}, {8, other_tag}}, produced) == 0);
  EXPECT(CountMisattributed({{9, other_tag}}, produced) == 1);
  EXPECT(CountMisattributed({{8, tag}, {10, tag}}, produced) == 2);
}

// Flips the last byte of provider read responses while armed: a page byte
// that went wrong somewhere below the client.
class FlipTransport : public rpc::Transport {
 public:
  explicit FlipTransport(rpc::Transport* inner) : inner_(inner) {}
  blobseer::Result<std::string> Serve(
      const std::string& a, std::shared_ptr<rpc::ServiceHandler> h) override {
    return inner_->Serve(a, std::move(h));
  }
  blobseer::Status StopServing(const std::string& a) override {
    return inner_->StopServing(a);
  }
  blobseer::Result<std::shared_ptr<rpc::Channel>> Connect(
      const std::string& a) override {
    auto ch = inner_->Connect(a);
    if (!ch.ok()) return ch.status();
    return std::shared_ptr<rpc::Channel>(
        std::make_shared<Chan>(this, std::move(ch).ValueUnsafe()));
  }
  bool armed = false;

 private:
  class Chan : public rpc::Channel {
   public:
    Chan(FlipTransport* owner, std::shared_ptr<rpc::Channel> inner)
        : owner_(owner), inner_(std::move(inner)) {}
    blobseer::Status Call(rpc::Method m, blobseer::Slice req,
                          std::string* rsp) override {
      blobseer::Status st = inner_->Call(m, req, rsp);
      Flip(m, rsp);
      return st;
    }
    void CallAsync(rpc::Method m, blobseer::Slice req,
                   rpc::CallCallback done) override {
      inner_->CallAsync(m, req,
                        [this, m, done = std::move(done)](blobseer::Status st,
                                                          std::string rsp) {
                          Flip(m, &rsp);
                          done(std::move(st), std::move(rsp));
                        });
    }

   private:
    void Flip(rpc::Method m, std::string* rsp) const {
      if (owner_->armed && m == rpc::Method::kProviderRead && !rsp->empty())
        rsp->back() ^= 0x01;
    }
    FlipTransport* owner_;
    std::shared_ptr<rpc::Channel> inner_;
  };
  rpc::Transport* inner_;
};

// mixed_small's checkers: the runner's reference model on every read, and
// VerifyRetained over every retained version.
void TestRunnerChecks() {
  namespace wl = blobseer::workload;
  blobseer::core::ClusterOptions o;
  o.replication = 2;
  auto cluster = blobseer::core::EmbeddedCluster::Start(o);
  EXPECT(cluster.ok());
  if (!cluster.ok()) return;
  auto& c = **cluster;
  for (bool flip_during_run : {false, true}) {
    FlipTransport flip(c.transport());
    blobseer::client::ClientOptions co;
    co.replication = 2;
    co.io_threads = 1;
    co.channels_per_endpoint = 1;
    blobseer::client::BlobClient client(&flip, c.vmanager_address(),
                                        c.pmanager_address(),
                                        c.dht_addresses(), co);
    auto spec = wl::WorkloadSpec::Preset("mixed");
    EXPECT(spec.ok());
    if (!spec.ok()) return;
    spec->ops = 60;
    wl::RunnerOptions ro;
    ro.window = 1;
    wl::WorkloadRunner runner(&client, blobseer::RealClock::Default(), ro);
    flip.armed = flip_during_run;
    EXPECT(runner.Run(*spec, wl::GenerateSchedule(*spec)).ok());
    if (flip_during_run) {
      EXPECT(runner.report().verify_failures > 0);
    } else {
      EXPECT(runner.report().verify_failures == 0);
      EXPECT(runner.VerifyRetained(false, nullptr).ok());
      flip.armed = true;
      EXPECT(runner.VerifyRetained(false, nullptr).IsCorruption());
    }
  }
}

// Overlapping child spans are counted once; spans are clipped to the op.
void TestUnionLength() {
  std::vector<std::pair<int64_t, int64_t>> iv = {{5, 15}, {0, 10}};
  EXPECT(UnionLength(&iv, 0, 20) == 15);
  iv = {{0, 10}, {2, 4}, {12, 14}};
  EXPECT(UnionLength(&iv, 0, 20) == 12);
  iv = {{-5, 3}, {18, 30}};
  EXPECT(UnionLength(&iv, 0, 20) == 5);
  iv = {};
  EXPECT(UnionLength(&iv, 0, 20) == 0);
}

// DHT calls are sorted into layers by their key's namespace tag.
void TestClassify() {
  auto get = [](const std::string& key) {
    blobseer::dht::GetRequest req;
    req.key = key;
    blobseer::BinaryWriter w;
    req.EncodeTo(&w);
    return ClassifyCall(rpc::Method::kDhtGet, blobseer::Slice(w.buffer()));
  };
  EXPECT(get("Nnode") == Layer::kMeta);
  EXPECT(get("Lloc") == Layer::kLocator);
  EXPECT(get("Hhash") == Layer::kDedup);
  EXPECT(ClassifyCall(rpc::Method::kProviderRead, blobseer::Slice()) ==
         Layer::kProvider);
  EXPECT(ClassifyCall(rpc::Method::kVmGetSize, blobseer::Slice()) ==
         Layer::kVmanager);
  EXPECT(ClassifyCall(rpc::Method::kPmAllocate, blobseer::Slice()) ==
         Layer::kPmanager);
}

}  // namespace

int main() {
  TestPatternChecker();
  TestTaggedChecker();
  TestRunnerChecks();
  TestUnionLength();
  TestClassify();
  if (failures) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
