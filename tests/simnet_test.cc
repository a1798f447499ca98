// Simulator tests: virtual-time scheduler semantics, flow-level bandwidth
// model (validated against hand-computed transfer times and the exact
// max-min model), and the full BlobSeer stack on a simulated cluster.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "core/sim_cluster.h"
#include "reference_blob.h"
#include "simnet/network.h"
#include "simnet/sim.h"
#include "simnet/transport.h"

namespace blobseer::simnet {
namespace {

using blobseer::testing::TestPayload;

TEST(SimSchedulerTest, VirtualTimeAdvancesWithoutWallClock) {
  SimScheduler sched;
  double observed = -1;
  sched.Run([&] {
    EXPECT_EQ(sched.Now(), 0.0);
    sched.SleepFor(1e9);  // one virtual kilosecond, instant in real time
    observed = sched.Now();
  });
  EXPECT_EQ(observed, 1e9);
}

TEST(SimSchedulerTest, TasksInterleaveDeterministically) {
  SimScheduler sched;
  std::vector<int> order;
  sched.Run([&] {
    auto a = sched.Spawn([&] {
      sched.SleepFor(10);
      order.push_back(1);
      sched.SleepFor(20);  // wakes at t=30
      order.push_back(3);
    });
    auto b = sched.Spawn([&] {
      sched.SleepFor(20);
      order.push_back(2);
      sched.SleepFor(20);  // wakes at t=40
      order.push_back(4);
    });
    sched.Join(a);
    sched.Join(b);
  });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(SimSchedulerTest, RepeatedRunsAreIdentical) {
  // Sleepers, a condition with deadline and notified waiters, a contended
  // semaphore and overlapping network flows: every event lands in the
  // trace with its virtual time, and two runs must agree exactly.
  auto run_once = [] {
    SimScheduler sched;
    std::vector<std::pair<int, double>> trace;
    sched.Run([&] {
      SimNetworkOptions opts;
      opts.nic_bytes_per_sec = 100e6;
      opts.latency_us = 50;
      SimNetwork net(&sched, 4, opts);
      SimCondition cond(&sched);
      SimSemaphore sem(&sched, 2);
      std::vector<SimScheduler::TaskId> ids;
      for (int i = 0; i < 5; i++) {
        ids.push_back(sched.Spawn([&, i] {
          sched.SleepFor(10 * (i + 1));
          trace.push_back({i, sched.Now()});
          sched.SleepFor(7);
          trace.push_back({i + 100, sched.Now()});
          // Odd tasks time out before the notify at t=60, even ones wait.
          bool notified =
              cond.WaitUntil(i % 2 ? sched.Now() + 3 : SimScheduler::kNever);
          trace.push_back({i + (notified ? 200 : 300), sched.Now()});
          sem.Acquire();
          net.Transfer(static_cast<uint32_t>(i % 4),
                       static_cast<uint32_t>((i + 1) % 4), 100'000 * (i + 1));
          trace.push_back({i + 400, sched.Now()});
          sem.Release();
        }));
      }
      sched.SleepFor(60);
      cond.NotifyAll();
      for (auto id : ids) sched.Join(id);
    });
    return trace;
  };
  std::vector<std::pair<int, double>> first = run_once();
  ASSERT_EQ(first.size(), 20u);
  EXPECT_EQ(first, run_once());
}

TEST(SimSchedulerTest, TasksRunOnTheCallersThread) {
  SimScheduler sched;
  std::vector<std::thread::id> seen;
  sched.Run([&] {
    seen.push_back(std::this_thread::get_id());
    std::vector<SimScheduler::TaskId> ids;
    for (int i = 0; i < 7; i++) {
      ids.push_back(sched.Spawn([&] {
        seen.push_back(std::this_thread::get_id());
        sched.SleepFor(1);
        seen.push_back(std::this_thread::get_id());
      }));
    }
    for (auto id : ids) sched.Join(id);
  });
  ASSERT_EQ(seen.size(), 15u);
  for (const std::thread::id& id : seen)
    EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(SimSchedulerTest, TaskStackHoldsA64KiBFrame) {
  // The stack budget: a task may keep 64 KiB of locals live across a
  // switch, with room to spare for ASan's redzones (kTaskStackBytes).
  static_assert(SimScheduler::kTaskStackBytes >= 4 * 64 * 1024);
  SimScheduler sched;
  uint64_t sum = 0;
  sched.Run([&] {
    auto big = sched.Spawn([&] {
      volatile unsigned char buf[64 * 1024];
      for (size_t i = 0; i < sizeof(buf); i++)
        buf[i] = static_cast<unsigned char>(i * 31);
      sched.SleepFor(1);  // the other task runs on its own stack meanwhile
      uint64_t s = 0;
      for (size_t i = 0; i < sizeof(buf); i++) s += buf[i];
      sum = s;
    });
    auto other = sched.Spawn([&] { sched.SleepFor(0); });
    sched.Join(big);
    sched.Join(other);
  });
  uint64_t expected = 0;
  for (size_t i = 0; i < 64 * 1024; i++)
    expected += static_cast<unsigned char>(i * 31);
  EXPECT_EQ(sum, expected);
}

TEST(SimSchedulerTest, ConditionNotifyWakesWaiters) {
  SimScheduler sched;
  std::vector<double> wake_times;
  sched.Run([&] {
    SimCondition cond(&sched);
    auto waiter1 = sched.Spawn([&] {
      EXPECT_TRUE(cond.WaitUntil(SimScheduler::kNever));
      wake_times.push_back(sched.Now());
    });
    auto waiter2 = sched.Spawn([&] {
      EXPECT_FALSE(cond.WaitUntil(sched.Now() + 5));  // deadline first
      wake_times.push_back(sched.Now());
    });
    sched.SleepFor(50);
    cond.NotifyAll();
    sched.Join(waiter1);
    sched.Join(waiter2);
  });
  ASSERT_EQ(wake_times.size(), 2u);
  EXPECT_EQ(wake_times[0], 5.0);   // deadline waiter
  EXPECT_EQ(wake_times[1], 50.0);  // notified waiter
}

TEST(SimSchedulerTest, SemaphoreSerializesFifo) {
  SimScheduler sched;
  std::vector<int> order;
  sched.Run([&] {
    SimSemaphore sem(&sched, 1);
    std::vector<SimScheduler::TaskId> ids;
    for (int i = 0; i < 3; i++) {
      ids.push_back(sched.Spawn([&, i] {
        sched.SleepFor(i + 1);  // arrive in order 0,1,2
        sem.Acquire();
        order.push_back(i);
        sched.SleepFor(100);  // hold the slot
        sem.Release();
      }));
    }
    for (auto id : ids) sched.Join(id);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SimExecutorTest, ParallelForCoversAllAndOverlaps) {
  SimScheduler sched;
  size_t n_done = 0;
  double elapsed = 0;
  sched.Run([&] {
    SimExecutor ex(&sched);
    double t0 = sched.Now();
    ASSERT_TRUE(ex.ParallelFor(8, 4, [&](size_t) {
                    sched.SleepFor(100);
                    n_done++;
                    return Status::OK();
                  }).ok());
    elapsed = sched.Now() - t0;
  });
  EXPECT_EQ(n_done, 8u);
  // 8 tasks of 100us at parallelism 4: two waves -> 200us, not 800us.
  EXPECT_EQ(elapsed, 200.0);
}

TEST(SimNetworkTest, SingleTransferMatchesHandComputation) {
  SimScheduler sched;
  double elapsed = 0;
  sched.Run([&] {
    SimNetworkOptions opts;
    opts.nic_bytes_per_sec = 100e6;
    opts.latency_us = 100;
    SimNetwork net(&sched, 3, opts);
    double t0 = sched.Now();
    net.Transfer(0, 1, 50'000'000);  // 50 MB at 100 MB/s = 0.5 s
    elapsed = sched.Now() - t0;
  });
  EXPECT_NEAR(elapsed, 100 + 0.5e6, 1.0);
}

TEST(SimNetworkTest, TwoFlowsShareTheSourceNic) {
  SimScheduler sched;
  double elapsed = 0;
  sched.Run([&] {
    SimNetworkOptions opts;
    opts.nic_bytes_per_sec = 100e6;
    opts.latency_us = 0;
    SimNetwork net(&sched, 3, opts);
    double t0 = sched.Now();
    auto a = sched.Spawn([&] { net.Transfer(0, 1, 10'000'000); });
    auto b = sched.Spawn([&] { net.Transfer(0, 2, 10'000'000); });
    sched.Join(a);
    sched.Join(b);
    elapsed = sched.Now() - t0;
  });
  // Both flows cross node 0's uplink: 20 MB total at 100 MB/s = 0.2 s.
  EXPECT_NEAR(elapsed, 0.2e6, 100.0);
}

TEST(SimNetworkTest, DisjointPairsDoNotInterfere) {
  SimScheduler sched;
  double elapsed = 0;
  sched.Run([&] {
    SimNetworkOptions opts;
    opts.nic_bytes_per_sec = 100e6;
    opts.latency_us = 0;
    SimNetwork net(&sched, 4, opts);
    double t0 = sched.Now();
    auto a = sched.Spawn([&] { net.Transfer(0, 1, 10'000'000); });
    auto b = sched.Spawn([&] { net.Transfer(2, 3, 10'000'000); });
    sched.Join(a);
    sched.Join(b);
    elapsed = sched.Now() - t0;
  });
  EXPECT_NEAR(elapsed, 0.1e6, 100.0);
}

TEST(SimNetworkTest, LateFlowSlowsEarlyFlow) {
  SimScheduler sched;
  double t_first = 0;
  sched.Run([&] {
    SimNetworkOptions opts;
    opts.nic_bytes_per_sec = 100e6;
    opts.latency_us = 0;
    SimNetwork net(&sched, 3, opts);
    auto a = sched.Spawn([&] {
      net.Transfer(0, 1, 10'000'000);
      t_first = sched.Now();
    });
    auto b = sched.Spawn([&] {
      sched.SleepFor(50'000);  // join 50 ms in
      net.Transfer(0, 2, 10'000'000);
    });
    sched.Join(a);
    sched.Join(b);
  });
  // Flow A: 5 MB alone (50 ms), then shares: remaining 5 MB at 50 MB/s
  // (100 ms) -> finishes at 150 ms.
  EXPECT_NEAR(t_first, 150'000, 200.0);
}

TEST(SimNetworkTest, EndpointShareMatchesMaxMinOnSymmetricLoad) {
  auto run = [](SimNetworkOptions::Sharing sharing) {
    SimScheduler sched;
    double elapsed = 0;
    sched.Run([&] {
      SimNetworkOptions opts;
      opts.nic_bytes_per_sec = 100e6;
      opts.latency_us = 0;
      opts.sharing = sharing;
      SimNetwork net(&sched, 9, opts);
      double t0 = sched.Now();
      std::vector<SimScheduler::TaskId> ids;
      // 8 readers each pulling 10 MB from a distinct provider.
      for (uint32_t i = 0; i < 4; i++) {
        ids.push_back(sched.Spawn(
            [&net, i] { net.Transfer(i + 1, 0, 10'000'000); }));
      }
      for (auto id : ids) sched.Join(id);
      elapsed = sched.Now() - t0;
    });
    return elapsed;
  };
  double endpoint = run(SimNetworkOptions::Sharing::kEndpointShare);
  double maxmin = run(SimNetworkOptions::Sharing::kMaxMin);
  EXPECT_NEAR(endpoint, maxmin, endpoint * 0.01);
  EXPECT_NEAR(endpoint, 0.4e6, 500.0);  // 40 MB through one downlink
}

TEST(SimNetworkTest, LoopbackBypassesNic) {
  SimScheduler sched;
  double elapsed = 0;
  sched.Run([&] {
    SimNetworkOptions opts;
    opts.nic_bytes_per_sec = 100e6;
    opts.latency_us = 100;
    SimNetwork net(&sched, 2, opts);
    double t0 = sched.Now();
    net.Transfer(1, 1, 1'000'000'000);
    elapsed = sched.Now() - t0;
  });
  EXPECT_EQ(elapsed, 100.0);
}

TEST(SimTransportTest, AddressParsing) {
  uint32_t node;
  std::string name;
  ASSERT_TRUE(SimTransport::ParseAddress("sim://17/provider", &node, &name).ok());
  EXPECT_EQ(node, 17u);
  EXPECT_EQ(name, "provider");
  EXPECT_FALSE(SimTransport::ParseAddress("tcp://17/x", &node, &name).ok());
  EXPECT_FALSE(SimTransport::ParseAddress("sim://17", &node, &name).ok());
  EXPECT_EQ(SimTransport::MakeAddress(3, "meta"), "sim://3/meta");
}

// Full BlobSeer stack in the simulator, with real page contents, verified
// against the reference model — proves the real code path runs unmodified
// on simnet.
TEST(SimClusterTest, EndToEndAppendWriteReadInVirtualTime) {
  SimScheduler sched;
  Status result = Status::Internal("did not run");
  double virtual_elapsed = 0;
  sched.Run([&] {
    core::SimClusterOptions opts;
    opts.num_provider_nodes = 8;
    opts.num_client_nodes = 1;
    opts.page_store = "memory";  // verify real bytes
    core::SimCluster cluster(&sched, opts);
    sched.SetCurrentNode(cluster.client_node(0));
    auto client = cluster.NewClient();

    result = [&]() -> Status {
      auto id = client->Create(4096);
      if (!id.ok()) return id.status();
      blobseer::testing::ReferenceBlob ref;
      double t0 = sched.Now();
      for (int i = 0; i < 5; i++) {
        std::string data = TestPayload(i, 30000 + i * 1111);
        auto v = client->Append(*id, Slice(data));
        if (!v.ok()) return v.status();
        if (*v != ref.ApplyAppend(data)) return Status::Internal("version");
        BS_RETURN_NOT_OK(client->Sync(*id, *v));
      }
      std::string patch = TestPayload(99, 5000);
      auto vw = client->Write(*id, Slice(patch), 12345);
      if (!vw.ok()) return vw.status();
      ref.ApplyWrite(patch, 12345);
      BS_RETURN_NOT_OK(client->Sync(*id, *vw));
      for (Version v = 1; v <= ref.latest(); v++) {
        std::string out;
        BS_RETURN_NOT_OK(client->Read(*id, v, 0, ref.Size(v), &out));
        if (out != ref.Contents(v))
          return Status::Corruption("content mismatch at v" +
                                    std::to_string(v));
      }
      virtual_elapsed = sched.Now() - t0;
      return Status::OK();
    }();
  });
  ASSERT_TRUE(result.ok()) << result.ToString();
  // ~160 KB pushed through a 117.5 MB/s NIC: at least ~1.4 ms of virtual
  // time must have passed, and well under a virtual minute.
  EXPECT_GT(virtual_elapsed, 1000.0);
  EXPECT_LT(virtual_elapsed, 60e6);
}

TEST(SimClusterTest, ConcurrentSimClientsKeepTotalOrder) {
  SimScheduler sched;
  bool ok = false;
  sched.Run([&] {
    core::SimClusterOptions opts;
    opts.num_provider_nodes = 6;
    opts.num_client_nodes = 3;
    opts.page_store = "memory";
    core::SimCluster cluster(&sched, opts);

    auto client0 = cluster.NewClient();
    sched.SetCurrentNode(cluster.client_node(0));
    auto id = client0->Create(4096);
    ASSERT_TRUE(id.ok());

    std::map<Version, std::string> by_version;
    std::vector<SimScheduler::TaskId> ids;
    for (int w = 0; w < 3; w++) {
      ids.push_back(sched.Spawn([&, w] {
        sched.SetCurrentNode(cluster.client_node(w));
        auto client = cluster.NewClient();
        for (int i = 0; i < 4; i++) {
          std::string data = TestPayload(w * 10 + i, 8000 + w * 100 + i);
          auto v = client->Append(*id, Slice(data));
          ASSERT_TRUE(v.ok()) << v.status().ToString();
          by_version[*v] = data;
        }
      }));
    }
    for (auto tid : ids) sched.Join(tid);

    ASSERT_EQ(by_version.size(), 12u);
    ASSERT_TRUE(client0->Sync(*id, 12).ok());
    blobseer::testing::ReferenceBlob ref;
    for (auto& [v, data] : by_version) ASSERT_EQ(ref.ApplyAppend(data), v);
    std::string out;
    ASSERT_TRUE(
        client0->Read(*id, 12, 0, ref.Size(12), &out).ok());
    ASSERT_EQ(out, ref.Contents(12));
    ok = true;
  });
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace blobseer::simnet
