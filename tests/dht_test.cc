// DHT tests: store semantics, placement distribution, replicated client,
// replica failover, batched MultiGet and the read path's DHT call count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>

#include "client/blob_client.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/cluster.h"
#include "dht/client.h"
#include "dht/placement.h"
#include "dht/service.h"
#include "dht/store.h"
#include "rpc/call.h"
#include "rpc/inproc.h"
#include "rpc/tcp.h"

namespace blobseer::dht {
namespace {

TEST(KvStoreTest, PutGetDelete) {
  KvStore store(4);
  std::string v;
  EXPECT_TRUE(store.Get(Slice("k"), &v).IsNotFound());
  ASSERT_TRUE(store.Put(Slice("k"), Slice("v1")).ok());
  ASSERT_TRUE(store.Get(Slice("k"), &v).ok());
  EXPECT_EQ(v, "v1");
  ASSERT_TRUE(store.Put(Slice("k"), Slice("v2")).ok());  // overwrite allowed
  ASSERT_TRUE(store.Get(Slice("k"), &v).ok());
  EXPECT_EQ(v, "v2");
  ASSERT_TRUE(store.Delete(Slice("k")).ok());
  EXPECT_TRUE(store.Get(Slice("k"), &v).IsNotFound());
  ASSERT_TRUE(store.Delete(Slice("k")).ok());  // idempotent
}

TEST(KvStoreTest, StatsTrackKeysAndBytes) {
  KvStore store(4);
  ASSERT_TRUE(store.Put(Slice("alpha"), Slice("12345")).ok());
  ASSERT_TRUE(store.Put(Slice("beta"), Slice("1")).ok());
  StoreStats st = store.GetStats();
  EXPECT_EQ(st.keys, 2u);
  EXPECT_EQ(st.bytes, 5 + 5 + 4 + 1u);
  ASSERT_TRUE(store.Delete(Slice("alpha")).ok());
  st = store.GetStats();
  EXPECT_EQ(st.keys, 1u);
  EXPECT_EQ(st.bytes, 5u);
}

TEST(KvStoreTest, ConcurrentMixedOps) {
  KvStore store(16);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 500; i++) {
        std::string k = StrFormat("key-%d-%d", t, i);
        ASSERT_TRUE(store.Put(Slice(k), Slice(k)).ok());
        std::string v;
        ASSERT_TRUE(store.Get(Slice(k), &v).ok());
        ASSERT_EQ(v, k);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(store.GetStats().keys, 8 * 500u);
}

TEST(PlacementTest, StaticIsDeterministicAndInRange) {
  StaticPlacement p(7);
  for (int i = 0; i < 100; i++) {
    std::string k = "key" + std::to_string(i);
    size_t n = p.NodeFor(Slice(k));
    EXPECT_LT(n, 7u);
    EXPECT_EQ(n, p.NodeFor(Slice(k)));
  }
}

TEST(PlacementTest, StaticSpreadsKeys) {
  StaticPlacement p(8);
  std::map<size_t, int> counts;
  for (int i = 0; i < 8000; i++) {
    counts[p.NodeFor(Slice("key" + std::to_string(i)))]++;
  }
  ASSERT_EQ(counts.size(), 8u);
  for (auto& [node, c] : counts) {
    EXPECT_GT(c, 700) << "node " << node << " starved";
    EXPECT_LT(c, 1300) << "node " << node << " overloaded";
  }
}

TEST(PlacementTest, ReplicasAreDistinct) {
  for (auto make : {MakeStaticPlacement, +[](size_t n) {
         return MakeRingPlacement(n, 64);
       }}) {
    auto p = make(5);
    for (int i = 0; i < 50; i++) {
      auto reps = p->ReplicaNodes(Slice("k" + std::to_string(i)), 3);
      ASSERT_EQ(reps.size(), 3u);
      EXPECT_NE(reps[0], reps[1]);
      EXPECT_NE(reps[1], reps[2]);
      EXPECT_NE(reps[0], reps[2]);
    }
  }
}

TEST(PlacementTest, ReplicasClampToNodeCount) {
  StaticPlacement p(2);
  EXPECT_EQ(p.ReplicaNodes(Slice("k"), 5).size(), 2u);
}

TEST(PlacementTest, RingIsMostlyStableUnderGrowth) {
  RingPlacement before(10, 64);
  RingPlacement after(11, 64);
  int moved = 0;
  const int kKeys = 2000;
  for (int i = 0; i < kKeys; i++) {
    std::string k = "stable" + std::to_string(i);
    if (before.NodeFor(Slice(k)) != after.NodeFor(Slice(k))) moved++;
  }
  // Consistent hashing should move roughly 1/11 of keys, far below the
  // ~10/11 a mod-N scheme would move.
  EXPECT_LT(moved, kKeys / 4);
  EXPECT_GT(moved, 0);
}

class DhtClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 4; i++) {
      auto svc = std::make_shared<DhtService>();
      services_.push_back(svc);
      std::string addr = StrFormat("inproc://dht-%d", i);
      ASSERT_TRUE(net_.Serve(addr, svc).ok());
      addresses_.push_back(addr);
    }
  }

  rpc::InProcNetwork net_;
  std::vector<std::shared_ptr<DhtService>> services_;
  std::vector<std::string> addresses_;
};

TEST_F(DhtClientTest, PutGetAcrossNodes) {
  DhtClient client(&net_, addresses_);
  for (int i = 0; i < 200; i++) {
    std::string k = "key" + std::to_string(i);
    ASSERT_TRUE(client.PutAsync(Slice(k), Slice("value" + std::to_string(i)))
                    .Wait()
                    .ok());
  }
  for (int i = 0; i < 200; i++) {
    auto v = client.GetAsync(Slice("key" + std::to_string(i))).Wait();
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, "value" + std::to_string(i));
  }
  // Keys actually spread across nodes.
  int populated = 0;
  for (auto& svc : services_) {
    if (svc->store().GetStats().keys > 0) populated++;
  }
  EXPECT_GE(populated, 3);
}

TEST_F(DhtClientTest, MissingKeyIsNotFound) {
  DhtClient client(&net_, addresses_);
  EXPECT_TRUE(client.GetAsync(Slice("nope")).Wait().status().IsNotFound());
}

TEST_F(DhtClientTest, ReplicationSurvivesPrimaryLoss) {
  DhtClientOptions opts;
  opts.replication = 2;
  DhtClient client(&net_, addresses_, opts);
  std::vector<std::string> keys;
  for (int i = 0; i < 100; i++) {
    keys.push_back("rk" + std::to_string(i));
    ASSERT_TRUE(client.PutAsync(Slice(keys.back()), Slice("v")).Wait().ok());
  }
  // Kill one node: every key must remain readable via its replica.
  ASSERT_TRUE(net_.StopServing(addresses_[1]).ok());
  for (const auto& k : keys) {
    auto v = client.GetAsync(Slice(k)).Wait();
    ASSERT_TRUE(v.ok()) << "lost key " << k;
    EXPECT_EQ(*v, "v");
  }
}

TEST_F(DhtClientTest, WithoutReplicationLossIsVisible) {
  DhtClient client(&net_, addresses_);
  StaticPlacement placement(addresses_.size());
  std::string victim_key;
  for (int i = 0; i < 1000 && victim_key.empty(); i++) {
    std::string k = "vk" + std::to_string(i);
    if (placement.NodeFor(Slice(k)) == 2) victim_key = k;
  }
  ASSERT_FALSE(victim_key.empty());
  ASSERT_TRUE(client.PutAsync(Slice(victim_key), Slice("v")).Wait().ok());
  ASSERT_TRUE(net_.StopServing(addresses_[2]).ok());
  EXPECT_FALSE(client.GetAsync(Slice(victim_key)).Wait().ok());
}

TEST_F(DhtClientTest, TotalStatsAggregates) {
  DhtClient client(&net_, addresses_);
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(
        client.PutAsync(Slice("sk" + std::to_string(i)), Slice("0123456789"))
            .Wait()
            .ok());
  }
  uint64_t keys, bytes;
  ASSERT_TRUE(client.TotalStats(&keys, &bytes).ok());
  EXPECT_EQ(keys, 50u);
  EXPECT_GT(bytes, 500u);
}

// Waits on every per-key future of a MultiGet, in order.
std::vector<Result<std::string>> WaitAll(
    std::vector<Future<std::string>> futures) {
  std::vector<Result<std::string>> out;
  for (auto& f : futures) out.push_back(f.Wait());
  return out;
}

// Counts the requests a DhtService answers, per method.
class CountingHandler : public rpc::ServiceHandler {
 public:
  explicit CountingHandler(std::shared_ptr<DhtService> inner)
      : inner_(std::move(inner)) {}
  Status Handle(rpc::Method method, Slice payload,
                std::string* response) override {
    if (method == rpc::Method::kDhtMultiGet) multigets++;
    if (method == rpc::Method::kDhtGet) gets++;
    return inner_->Handle(method, payload, response);
  }
  std::atomic<int> multigets{0};
  std::atomic<int> gets{0};

 private:
  std::shared_ptr<DhtService> inner_;
};

class MultiGetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 4; i++) {
      auto svc = std::make_shared<CountingHandler>(
          std::make_shared<DhtService>());
      handlers_.push_back(svc);
      std::string addr = StrFormat("inproc://mget-%d", i);
      ASSERT_TRUE(net_.Serve(addr, svc).ok());
      addresses_.push_back(addr);
    }
  }

  int TotalMultiGets() const {
    int n = 0;
    for (const auto& h : handlers_) n += h->multigets.load();
    return n;
  }

  rpc::InProcNetwork net_;
  std::vector<std::shared_ptr<CountingHandler>> handlers_;
  std::vector<std::string> addresses_;
};

TEST_F(MultiGetTest, EmptyInputMakesNoCalls) {
  DhtClient client(&net_, addresses_);
  EXPECT_TRUE(client.MultiGetAsync({}).empty());
  EXPECT_EQ(TotalMultiGets(), 0);
}

TEST_F(MultiGetTest, OneCallPerNodeAndInputOrderKept) {
  DhtClient client(&net_, addresses_);
  std::vector<std::string> keys;
  for (int i = 0; i < 64; i++) {
    keys.push_back("mk" + std::to_string(i));
    ASSERT_TRUE(client.PutAsync(Slice(keys.back()), Slice("v" + keys.back()))
                    .Wait()
                    .ok());
  }
  // The keys land on every node.
  StaticPlacement placement(addresses_.size());
  std::vector<bool> hit(addresses_.size(), false);
  for (const auto& k : keys) hit[placement.NodeFor(Slice(k))] = true;
  ASSERT_TRUE(std::all_of(hit.begin(), hit.end(), [](bool b) { return b; }));
  // Request them in an order unrelated to placement.
  std::reverse(keys.begin(), keys.end());
  auto got = WaitAll(client.MultiGetAsync(keys));
  ASSERT_EQ(got.size(), keys.size());
  for (size_t i = 0; i < keys.size(); i++) {
    ASSERT_TRUE(got[i].ok()) << keys[i];
    EXPECT_EQ(*got[i], "v" + keys[i]);
  }
  EXPECT_EQ(TotalMultiGets(), 4);
  for (const auto& h : handlers_) {
    EXPECT_EQ(h->multigets.load(), 1);
    EXPECT_EQ(h->gets.load(), 0);
  }
}

TEST_F(MultiGetTest, MissingKeysAreNotFound) {
  DhtClient client(&net_, addresses_);
  ASSERT_TRUE(client.PutAsync(Slice("present"), Slice("p")).Wait().ok());
  auto got = WaitAll(client.MultiGetAsync({"absent-1", "present", "absent-2"}));
  ASSERT_EQ(got.size(), 3u);
  EXPECT_TRUE(got[0].status().IsNotFound());
  ASSERT_TRUE(got[1].ok());
  EXPECT_EQ(*got[1], "p");
  EXPECT_TRUE(got[2].status().IsNotFound());
}

TEST_F(MultiGetTest, ReplicatedKeysFallBackWhenPrimaryStops) {
  DhtClientOptions opts;
  opts.replication = 2;
  DhtClient client(&net_, addresses_, opts);
  std::vector<std::string> keys;
  for (int i = 0; i < 100; i++) {
    keys.push_back("rk" + std::to_string(i));
    ASSERT_TRUE(
        client.PutAsync(Slice(keys.back()), Slice(keys.back())).Wait().ok());
  }
  ASSERT_TRUE(net_.StopServing(addresses_[1]).ok());
  auto got = WaitAll(client.MultiGetAsync(keys));
  for (size_t i = 0; i < keys.size(); i++) {
    ASSERT_TRUE(got[i].ok()) << "lost key " << keys[i];
    EXPECT_EQ(*got[i], keys[i]);
  }
}

TEST_F(MultiGetTest, ReplicatedKeysFallBackWhenPrimaryMissesThem) {
  DhtClientOptions opts;
  opts.replication = 2;
  DhtClient client(&net_, addresses_, opts);
  // Written only to each key's second replica: every primary answers
  // "not found" and the batch must retry on the next replica.
  StaticPlacement placement(addresses_.size());
  std::vector<std::string> keys;
  for (int i = 0; i < 20; i++) {
    keys.push_back("sk" + std::to_string(i));
    size_t second = placement.ReplicaNodes(Slice(keys.back()), 2)[1];
    DhtClient direct(&net_, {addresses_[second]});
    ASSERT_TRUE(
        direct.PutAsync(Slice(keys.back()), Slice("second")).Wait().ok());
  }
  auto got = WaitAll(client.MultiGetAsync(keys));
  for (size_t i = 0; i < keys.size(); i++) {
    ASSERT_TRUE(got[i].ok()) << keys[i];
    EXPECT_EQ(*got[i], "second");
  }
  // One batch per primary, then one per second replica.
  EXPECT_LE(TotalMultiGets(), 8);
}

// Over TCP each node's batch completes on its own connection's thread, so
// the per-key results of one call are filled concurrently (the TSan job
// runs this suite).
TEST(MultiGetTcpTest, ConcurrentBatchesAcrossNodes) {
  rpc::TcpTransport tcp;
  std::vector<std::string> addresses;
  for (int i = 0; i < 4; i++) {
    auto bound = tcp.Serve("127.0.0.1:0", std::make_shared<DhtService>());
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    addresses.push_back(*bound);
  }
  DhtClientOptions opts;
  opts.replication = 2;
  DhtClient client(&tcp, addresses, opts);
  std::vector<std::string> keys;
  for (int i = 0; i < 64; i++) {
    keys.push_back("tk" + std::to_string(i));
    ASSERT_TRUE(
        client.PutAsync(Slice(keys.back()), Slice(keys.back())).Wait().ok());
  }
  auto check = [&] {
    std::vector<Future<std::vector<Result<std::string>>>> rounds;
    for (int r = 0; r < 8; r++)
      rounds.push_back(WhenAll(client.MultiGetAsync(keys)));
    for (auto& round : rounds) {
      auto got = round.Wait();
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got->size(), keys.size());
      for (size_t i = 0; i < keys.size(); i++) {
        ASSERT_TRUE((*got)[i].ok()) << keys[i];
        EXPECT_EQ(*(*got)[i], keys[i]);
      }
    }
  };
  check();
  // With a primary gone, its keys fall back to their second replica.
  ASSERT_TRUE(tcp.StopServing(addresses[2]).ok());
  check();
}

// Answers every MultiGet with a fixed, possibly malformed, reply.
class FakeMultiGetHandler : public rpc::ServiceHandler {
 public:
  explicit FakeMultiGetHandler(MultiGetResponse reply)
      : reply_(std::move(reply)) {}
  Status Handle(rpc::Method method, Slice payload,
                std::string* response) override {
    if (method != rpc::Method::kDhtMultiGet)
      return Status::NotSupported("fake dht");
    return rpc::DispatchTyped<MultiGetRequest, MultiGetResponse>(
        payload, response, [this](const MultiGetRequest&, MultiGetResponse* r) {
          *r = reply_;
          return Status::OK();
        });
  }

 private:
  MultiGetResponse reply_;
};

TEST(MultiGetShapeTest, MalformedRepliesFailWithCorruption) {
  MultiGetResponse too_few_flags;
  too_few_flags.found = {1};
  too_few_flags.values = {"a"};
  MultiGetResponse too_few_values;
  too_few_values.found = {1, 1};
  too_few_values.values = {"a"};
  MultiGetResponse too_many_values;
  too_many_values.found = {0, 1};
  too_many_values.values = {"a", "b"};
  for (const MultiGetResponse& reply :
       {too_few_flags, too_few_values, too_many_values}) {
    rpc::InProcNetwork net;
    ASSERT_TRUE(net.Serve("inproc://fake-dht",
                          std::make_shared<FakeMultiGetHandler>(reply))
                    .ok());
    DhtClient client(&net, {"inproc://fake-dht"});
    auto got = WaitAll(client.MultiGetAsync({"k1", "k2"}));
    ASSERT_EQ(got.size(), 2u);
    for (const auto& r : got) EXPECT_TRUE(r.status().IsCorruption());
  }
}

// Counts the DHT calls a client makes, split by key namespace ('N' tree
// nodes, 'L' page locations).
class DhtCallCounter : public rpc::Transport {
 public:
  explicit DhtCallCounter(rpc::Transport* inner) : inner_(inner) {}

  Result<std::string> Serve(const std::string& address,
                            std::shared_ptr<rpc::ServiceHandler> h) override {
    return inner_->Serve(address, std::move(h));
  }
  Status StopServing(const std::string& address) override {
    return inner_->StopServing(address);
  }
  Result<std::shared_ptr<rpc::Channel>> Connect(
      const std::string& address) override {
    auto ch = inner_->Connect(address);
    if (!ch.ok()) return ch.status();
    return std::shared_ptr<rpc::Channel>(
        std::make_shared<Channel>(this, std::move(ch).ValueUnsafe()));
  }

  std::atomic<int> node_calls{0};
  std::atomic<int> location_calls{0};

 private:
  class Channel : public rpc::Channel {
   public:
    Channel(DhtCallCounter* owner, std::shared_ptr<rpc::Channel> inner)
        : owner_(owner), inner_(std::move(inner)) {}
    Status Call(rpc::Method m, Slice req, std::string* rsp) override {
      owner_->Count(m, req);
      return inner_->Call(m, req, rsp);
    }
    void CallAsync(rpc::Method m, Slice req, rpc::CallCallback done) override {
      owner_->Count(m, req);
      inner_->CallAsync(m, req, std::move(done));
    }

   private:
    DhtCallCounter* owner_;
    std::shared_ptr<rpc::Channel> inner_;
  };

  void Count(rpc::Method m, Slice payload) {
    std::string first_key;
    BinaryReader r(payload);
    if (m == rpc::Method::kDhtGet) {
      GetRequest req;
      if (!req.DecodeFrom(&r).ok()) return;
      first_key = req.key;
    } else if (m == rpc::Method::kDhtMultiGet) {
      MultiGetRequest req;
      if (!req.DecodeFrom(&r).ok() || req.keys.empty()) return;
      first_key = req.keys[0];
    } else {
      return;
    }
    if (first_key.empty()) return;
    if (first_key[0] == 'N') node_calls++;
    if (first_key[0] == 'L') location_calls++;
  }

  rpc::Transport* inner_;
};

TEST(ReadPathDhtCallsTest, ColdReadBatchesPerNodePerLevel) {
  constexpr uint64_t kPage = 4096;
  constexpr uint64_t kPages = 64;  // tree of 7 levels: 64, 32, ..., 1 pages
  constexpr int kLevels = 7;
  core::ClusterOptions copts;
  copts.num_meta = 4;
  auto cluster = core::EmbeddedCluster::Start(copts);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  auto writer = (*cluster)->NewClient();
  ASSERT_TRUE(writer.ok());
  auto id = (*writer)->Create(kPage);
  ASSERT_TRUE(id.ok());
  std::string data(kPages * kPage, '\0');
  for (size_t i = 0; i < data.size(); i++) data[i] = char(i * 7 + i / kPage);
  auto v = (*writer)->Append(*id, Slice(data));
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ASSERT_TRUE((*writer)->Sync(*id, *v).ok());

  // A fresh client: both its tree-node and location caches are cold.
  DhtCallCounter counter((*cluster)->transport());
  client::BlobClient reader(&counter, (*cluster)->vmanager_address(),
                            (*cluster)->pmanager_address(),
                            (*cluster)->dht_addresses());
  std::string out;
  ASSERT_TRUE(reader.Read(*id, *v, 16 * kPage, 16 * kPage, &out).ok());
  EXPECT_EQ(out, data.substr(16 * kPage, 16 * kPage));
  // One call per DHT node per tree level at most (33 single-key gets
  // without batching), and one location batch per DHT node (16 gets).
  EXPECT_LE(counter.node_calls.load(), 4 * kLevels);
  EXPECT_LE(counter.location_calls.load(), 4);
}

}  // namespace
}  // namespace blobseer::dht
