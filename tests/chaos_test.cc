// Chaos suite: seeded fault schedules driven through the whole cluster —
// replication, failover, migration, dedup — with every client-visible
// operation recorded and validated by the history checker, then a full
// restart from the persistent stores verified against the final state.
//
// Schedules are deterministic: a failing (name, seed) pair reproduces
// bit-for-bit because fault decisions are pure functions of the plan seed
// and the single-threaded harness issues operations in a fixed
// interleaving (the one `threaded` schedule uses only faults that cannot
// change outcomes — delays and duplicates).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "common/rng.h"
#include "core/local_cluster.h"
#include "history_checker.h"
#include "novoht/novoht.h"

namespace zht {
namespace {

namespace fs = std::filesystem;

// ---- checker self-tests (teeth) ----------------------------------------
//
// Synthetic histories with known defects: the checker must catch each one,
// or a regression in it would let the live schedules rot silently. These
// are exactly the defects that reverting server logic would produce —
// dropping append dedup double-applies tokens, dropping failover loses
// acked writes.

HistoryEvent Ev(std::uint64_t id, OpCode op, std::string key,
                std::string argument, std::uint64_t invoked,
                std::uint64_t completed, StatusCode result,
                std::string returned = {}) {
  HistoryEvent e;
  e.id = id;
  e.client = 1;
  e.op = op;
  e.key = std::move(key);
  e.argument = std::move(argument);
  e.invoked = invoked;
  e.completed = completed;
  e.result = result;
  e.returned = std::move(returned);
  return e;
}

TEST(HistoryCheckerTest, CleanHistoryPasses) {
  std::vector<HistoryEvent> h = {
      Ev(1, OpCode::kInsert, "k", "v1", 1, 2, StatusCode::kOk),
      Ev(2, OpCode::kLookup, "k", "", 3, 4, StatusCode::kOk, "v1"),
      Ev(3, OpCode::kRemove, "k", "", 5, 6, StatusCode::kOk),
      Ev(4, OpCode::kLookup, "k", "", 7, 8, StatusCode::kNotFound),
      Ev(5, OpCode::kAppend, "l", "a;", 9, 10, StatusCode::kOk),
      Ev(6, OpCode::kAppend, "l", "b;", 11, 12, StatusCode::kOk),
      Ev(7, OpCode::kLookup, "l", "", 13, 14, StatusCode::kOk, "a;b;"),
  };
  auto result = CheckHistory(h);
  EXPECT_TRUE(result.ok()) << result.ToString();
}

TEST(HistoryCheckerTest, DoubleAppliedAppendIsFlagged) {
  std::vector<HistoryEvent> h = {
      Ev(1, OpCode::kAppend, "l", "a;", 1, 2, StatusCode::kOk),
      Ev(2, OpCode::kLookup, "l", "", 3, 4, StatusCode::kOk, "a;a;"),
  };
  EXPECT_FALSE(CheckHistory(h).ok());
}

TEST(HistoryCheckerTest, LostAckedInsertIsFlagged) {
  std::vector<HistoryEvent> h = {
      Ev(1, OpCode::kInsert, "k", "v1", 1, 2, StatusCode::kOk),
      Ev(2, OpCode::kLookup, "k", "", 3, 4, StatusCode::kNotFound),
  };
  EXPECT_FALSE(CheckHistory(h).ok());
}

TEST(HistoryCheckerTest, LostAckedAppendIsFlagged) {
  std::vector<HistoryEvent> h = {
      Ev(1, OpCode::kAppend, "l", "a;", 1, 2, StatusCode::kOk),
      Ev(2, OpCode::kAppend, "l", "b;", 3, 4, StatusCode::kOk),
      Ev(3, OpCode::kLookup, "l", "", 5, 6, StatusCode::kOk, "b;"),
  };
  EXPECT_FALSE(CheckHistory(h).ok());
}

TEST(HistoryCheckerTest, DefinitelyStaleReadIsFlagged) {
  std::vector<HistoryEvent> h = {
      Ev(1, OpCode::kInsert, "k", "v1", 1, 2, StatusCode::kOk),
      Ev(2, OpCode::kInsert, "k", "v2", 3, 4, StatusCode::kOk),
      Ev(3, OpCode::kLookup, "k", "", 5, 6, StatusCode::kOk, "v1"),
  };
  EXPECT_FALSE(CheckHistory(h).ok());
}

TEST(HistoryCheckerTest, ReadOfNeverWrittenValueIsFlagged) {
  std::vector<HistoryEvent> h = {
      Ev(1, OpCode::kInsert, "k", "v1", 1, 2, StatusCode::kOk),
      Ev(2, OpCode::kLookup, "k", "", 3, 4, StatusCode::kOk, "vX"),
  };
  EXPECT_FALSE(CheckHistory(h).ok());
}

TEST(HistoryCheckerTest, ReadFromTheFutureIsFlagged) {
  std::vector<HistoryEvent> h = {
      Ev(1, OpCode::kLookup, "k", "", 1, 2, StatusCode::kOk, "v1"),
      Ev(2, OpCode::kInsert, "k", "v1", 3, 4, StatusCode::kOk),
  };
  EXPECT_FALSE(CheckHistory(h).ok());
}

TEST(HistoryCheckerTest, OrderInversionIsFlagged) {
  std::vector<HistoryEvent> h = {
      Ev(1, OpCode::kAppend, "l", "a;", 1, 2, StatusCode::kOk),
      Ev(2, OpCode::kAppend, "l", "b;", 3, 4, StatusCode::kOk),
      Ev(3, OpCode::kLookup, "l", "", 5, 6, StatusCode::kOk, "b;a;"),
  };
  EXPECT_FALSE(CheckHistory(h).ok());
}

TEST(HistoryCheckerTest, TimeoutsAreAmbiguousNotViolations) {
  // A timed-out insert may or may not have applied: both a later NotFound
  // and a later read of its value are legal.
  std::vector<HistoryEvent> h1 = {
      Ev(1, OpCode::kInsert, "k", "v1", 1, 2, StatusCode::kTimeout),
      Ev(2, OpCode::kLookup, "k", "", 3, 4, StatusCode::kNotFound),
  };
  auto r1 = CheckHistory(h1);
  EXPECT_TRUE(r1.ok()) << r1.ToString();
  std::vector<HistoryEvent> h2 = {
      Ev(1, OpCode::kInsert, "k", "v1", 1, 2, StatusCode::kTimeout),
      Ev(2, OpCode::kLookup, "k", "", 3, 4, StatusCode::kOk, "v1"),
  };
  auto r2 = CheckHistory(h2);
  EXPECT_TRUE(r2.ok()) << r2.ToString();
  // Same for a pending remove: NotFound afterwards is legal.
  std::vector<HistoryEvent> h3 = {
      Ev(1, OpCode::kInsert, "k", "v1", 1, 2, StatusCode::kOk),
      Ev(2, OpCode::kRemove, "k", "", 3, 0, StatusCode::kTimeout),
      Ev(3, OpCode::kLookup, "k", "", 4, 5, StatusCode::kNotFound),
  };
  auto r3 = CheckHistory(h3);
  EXPECT_TRUE(r3.ok()) << r3.ToString();
}

TEST(HistoryCheckerTest, TornLedgerValueIsFlagged) {
  std::vector<HistoryEvent> h = {
      Ev(1, OpCode::kAppend, "l", "a;", 1, 2, StatusCode::kOk),
      Ev(2, OpCode::kLookup, "l", "", 3, 4, StatusCode::kOk, "a;frag"),
  };
  EXPECT_FALSE(CheckHistory(h).ok());
}

// ---- live chaos schedules ----------------------------------------------

// kCrashWindow kills the victim while it holds a write its secondary has
// already acked but its own fsync has not yet covered (CrashInCommitWindow).
enum class MidEvent { kNone, kKill, kJoin, kCrashWindow };

struct ChaosSchedule {
  const char* name;
  std::uint64_t seed;
  int replicas = 0;
  std::uint32_t instances = 4;
  int clients = 2;
  int ops_per_phase = 60;
  // One rule set per phase; rules are installed at phase start and removed
  // at phase end. The mid event fires between phases 0 and 1; the second
  // mid event (overlapping failures, rebuild interruption) between 1 and 2.
  std::vector<std::vector<FaultRule>> phases;
  bool partition_in_middle = false;  // cut servers {0..n/2-1} | {n/2..n-1}
  MidEvent mid = MidEvent::kNone;
  std::size_t victim = 1;
  MidEvent mid2 = MidEvent::kNone;
  std::size_t victim2 = 2;
  bool threaded = false;  // real threads: only delay/duplicate faults!
  // Durability of the partition stores. With kGroupCommit the servers ack a
  // mutation only after the flusher has synced past it, so a mid-schedule
  // kill lands inside open commit windows — acked ops must still survive
  // the restart.
  DurabilityMode durability = DurabilityMode::kNone;
  Nanos max_commit_latency = 0;
};

constexpr int kRegisterKeys = 10;
constexpr int kLedgerKeys = 4;

std::string RegisterKey(int i) { return "reg" + std::to_string(i); }
std::string LedgerKey(int i) { return "led" + std::to_string(i); }

// Client options that ride out injected faults: plenty of attempts, fast
// failure marking so failover and dead-node reporting actually engage.
ZhtClientOptions ChaosClient() {
  ZhtClientOptions options;
  options.max_attempts = 24;
  options.failure_detector.failures_to_mark_dead = 4;
  options.failure_detector.initial_backoff = 0;
  options.sleep_on_backoff = false;
  return options;
}

// Holds one fsync of one partition store until the test releases it, then
// fails it: the process died before the sync returned. Other fsyncs pass.
class CommitGate {
 public:
  void Arm(PartitionId partition) {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = partition;
  }

  int Sync(PartitionId partition, int fd) {
    std::unique_lock<std::mutex> lock(mu_);
    if (armed_ != partition) {
      lock.unlock();
      return ::fdatasync(fd);
    }
    armed_.reset();
    entered_ = true;
    cv_.notify_all();
    cv_.wait_for(lock, std::chrono::seconds(10), [this] { return released_; });
    errno = EIO;
    return -1;
  }

  // True once the armed fsync is being held (waits up to `bound`).
  bool AwaitEntered(std::chrono::milliseconds bound) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, bound, [this] { return entered_; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_.reset();
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::optional<PartitionId> armed_;
  bool entered_ = false;
  bool released_ = false;
};

class ChaosHarness {
 public:
  ChaosHarness(const ChaosSchedule& schedule, fs::path dir)
      : schedule_(schedule), dir_(std::move(dir)) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  ~ChaosHarness() { fs::remove_all(dir_); }

  StoreFactory PersistentStores() const {
    fs::path dir = dir_;
    DurabilityMode durability = schedule_.durability;
    Nanos latency = schedule_.max_commit_latency;
    // Only the crash-window victim's stores sync through the gate.
    std::optional<InstanceId> gated;
    if (schedule_.mid == MidEvent::kCrashWindow) {
      gated = static_cast<InstanceId>(schedule_.victim);
    }
    return [dir, durability, latency, gated, gate = gate_](
               InstanceId self,
               PartitionId partition) -> std::unique_ptr<KVStore> {
      NoVoHTOptions options;
      options.path = (dir / ("i" + std::to_string(self) + "_p" +
                             std::to_string(partition)))
                         .string();
      options.durability = durability;
      options.max_commit_latency = latency;
      // The server acks once per request via the last_commit_token() /
      // WaitDurable() handshake; the store must not block internally.
      options.wait_for_durable = false;
      if (gated == self) {
        options.fsync_hook = [gate, partition](int fd) {
          return gate->Sync(partition, fd);
        };
      }
      auto store = NoVoHT::Open(options);
      return store.ok() ? std::move(*store) : nullptr;
    };
  }

  LocalClusterOptions BaseOptions() const {
    LocalClusterOptions options;
    options.num_instances = schedule_.instances;
    options.num_partitions = schedule_.instances * 8;
    options.cluster.num_replicas = schedule_.replicas;
    options.store_factory = PersistentStores();
    return options;
  }

  void Run() {
    LocalClusterOptions options = BaseOptions();
    options.fault_plan = std::make_shared<FaultPlan>(schedule_.seed);
    plan_ = options.fault_plan;
    auto cluster = LocalCluster::Start(options);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = std::move(*cluster);

    struct Client {
      std::uint64_t id;
      ClientHandle handle;
      Rng rng;
      int counter = 0;
    };
    std::vector<Client> clients;
    for (int c = 0; c < schedule_.clients; ++c) {
      clients.push_back(Client{static_cast<std::uint64_t>(c + 1),
                               cluster_->CreateClient(ChaosClient()),
                               Rng(schedule_.seed * 1000 + c)});
    }

    for (std::size_t phase = 0; phase < schedule_.phases.size(); ++phase) {
      std::vector<int> installed;
      for (const FaultRule& rule : schedule_.phases[phase]) {
        installed.push_back(plan_->AddRule(rule));
      }
      int cut = -1;
      const bool middle = phase == schedule_.phases.size() / 2;
      if (schedule_.partition_in_middle && middle) {
        std::vector<NodeAddress> a, b;
        for (std::size_t i = 0; i < cluster_->instance_count(); ++i) {
          (i < cluster_->instance_count() / 2 ? a : b)
              .push_back(cluster_->instance_address(i));
        }
        cut = plan_->AddPartition(std::move(a), std::move(b));
      }

      if (schedule_.threaded) {
        std::vector<std::thread> threads;
        for (Client& client : clients) {
          threads.emplace_back([this, &client] {
            for (int op = 0; op < schedule_.ops_per_phase; ++op) {
              IssueOne(client.id, *client.handle.get(), client.rng,
                       client.counter);
            }
          });
        }
        for (std::thread& t : threads) t.join();
      } else {
        // Fixed interleaving: one op per client, round-robin.
        for (int op = 0; op < schedule_.ops_per_phase; ++op) {
          for (Client& client : clients) {
            IssueOne(client.id, *client.handle.get(), client.rng,
                     client.counter);
          }
        }
      }

      for (int id : installed) plan_->RemoveRule(id);
      if (cut >= 0) plan_->RemovePartition(cut);

      const MidEvent event = phase == 0   ? schedule_.mid
                             : phase == 1 ? schedule_.mid2
                                          : MidEvent::kNone;
      const std::size_t victim =
          phase == 0 ? schedule_.victim : schedule_.victim2;
      switch (event) {
        case MidEvent::kNone:
          break;
        case MidEvent::kKill:
          cluster_->KillInstance(victim);
          break;
        case MidEvent::kJoin: {
          auto joined = cluster_->JoinNewInstance();
          ASSERT_TRUE(joined.ok()) << joined.status().ToString();
          break;
        }
        case MidEvent::kCrashWindow:
          CrashInCommitWindow(victim);
          break;
      }
    }

    // Quiesce: no faults remain, async replication flushed, and one final
    // recorded read of every key — these reads anchor the checker's view
    // of the final state.
    plan_->Clear();
    cluster_->FlushAllAsyncReplication();
    auto reader = cluster_->CreateClient(ChaosClient());
    RecordedReadAll(*reader.get());

    auto result = CheckHistory(recorder_.Events());
    EXPECT_TRUE(result.ok())
        << "schedule '" << schedule_.name << "' seed " << schedule_.seed
        << " (" << result.events_checked << " events):\n"
        << result.ToString();

    VerifyRestart(*reader.get());
  }

 private:
  void IssueOne(std::uint64_t id, ZhtClient& client, Rng& rng, int& counter) {
    const double dice = rng.NextDouble();
    if (dice < 0.35) {
      std::string key = RegisterKey(static_cast<int>(rng.Below(kRegisterKeys)));
      std::string value =
          "v" + std::to_string(id) + "_" + std::to_string(++counter);
      std::uint64_t op = recorder_.Begin(id, OpCode::kInsert, key, value);
      recorder_.End(op, client.Insert(key, value).code());
    } else if (dice < 0.55) {
      std::string key = RegisterKey(static_cast<int>(rng.Below(kRegisterKeys)));
      std::uint64_t op = recorder_.Begin(id, OpCode::kLookup, key, "");
      auto got = client.Lookup(key);
      recorder_.End(op, got.status().code(), got.ok() ? *got : "");
    } else if (dice < 0.65) {
      std::string key = RegisterKey(static_cast<int>(rng.Below(kRegisterKeys)));
      std::uint64_t op = recorder_.Begin(id, OpCode::kRemove, key, "");
      recorder_.End(op, client.Remove(key).code());
    } else if (dice < 0.85) {
      std::string key = LedgerKey(static_cast<int>(rng.Below(kLedgerKeys)));
      std::string token =
          "c" + std::to_string(id) + "t" + std::to_string(++counter) + ";";
      std::uint64_t op = recorder_.Begin(id, OpCode::kAppend, key, token);
      recorder_.End(op, client.Append(key, token).code());
    } else {
      std::string key = LedgerKey(static_cast<int>(rng.Below(kLedgerKeys)));
      std::uint64_t op = recorder_.Begin(id, OpCode::kLookup, key, "");
      auto got = client.Lookup(key);
      recorder_.End(op, got.status().code(), got.ok() ? *got : "");
    }
  }

  // One recorded insert to a register key `victim` is primary for. The
  // victim's fsync of that write is held until its secondary has acked the
  // sync leg; then the victim is killed and the fsync fails, as if the
  // process died inside it. The reply is lost with the process (a dropped
  // response), so the op is ambiguous unless the client's retry lands it on
  // the secondary. Acked writes must still survive the restart.
  void CrashInCommitWindow(std::size_t victim) {
    const MembershipTable table = cluster_->TableSnapshot();
    std::string key;
    PartitionId partition = 0;
    for (int i = 0; i < kRegisterKeys && key.empty(); ++i) {
      partition = table.PartitionOfKey(RegisterKey(i));
      if (table.OwnerOf(partition) == victim) key = RegisterKey(i);
    }
    ASSERT_FALSE(key.empty()) << "no register key on instance " << victim;
    const std::vector<InstanceId> chain =
        table.ReplicaChain(partition, schedule_.replicas);
    ASSERT_GE(chain.size(), 2u);
    ZhtServer& secondary = *cluster_->server(chain[1]);
    auto legs_acked = [&secondary] {
      const MetricsSnapshot snapshot = secondary.MetricsSnapshotNow();
      const MetricValue* inserts = snapshot.Find("server.op.insert.latency_ns");
      return inserts == nullptr ? std::uint64_t{0} : inserts->histogram.count;
    };

    constexpr std::uint64_t kWindowClient = 77;
    auto client = cluster_->CreateClient(ChaosClient());
    // Opens the victim's and the secondary's stores before the gate arms.
    std::uint64_t op = recorder_.Begin(kWindowClient, OpCode::kInsert, key,
                                       "window_warm");
    recorder_.End(op, client->Insert(key, "window_warm").code());
    const std::uint64_t acked_before = legs_acked();

    const int lost_reply = plan_->AddRule(
        {.kind = FaultKind::kDropResponse,
         .to = cluster_->instance_address(victim),
         .op = OpCode::kInsert,
         .client_only = true,
         .max_faults = 1});
    gate_->Arm(partition);
    StatusCode result = StatusCode::kOk;
    std::thread writer([&] {
      const std::uint64_t id = recorder_.Begin(kWindowClient, OpCode::kInsert,
                                               key, "window_inflight");
      result = client->Insert(key, "window_inflight").code();
      recorder_.End(id, result);
    });
    const bool held = gate_->AwaitEntered(std::chrono::seconds(2));
    bool window = false;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (held && std::chrono::steady_clock::now() < deadline) {
      if (legs_acked() > acked_before) {
        window = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    cluster_->KillInstance(victim);
    gate_->Release();
    writer.join();
    plan_->RemoveRule(lost_reply);

    EXPECT_TRUE(held) << "the victim's fsync of the write was never held";
    EXPECT_TRUE(window)
        << "the secondary did not ack the leg before the primary's fsync";
    // The victim's kInternal reply is lost with it: the client sees the
    // write either ambiguous or, after failing over, acked.
    EXPECT_TRUE(result == StatusCode::kOk || result == StatusCode::kTimeout ||
                result == StatusCode::kUnavailable)
        << StatusCodeName(result);
  }

  void RecordedReadAll(ZhtClient& client) {
    for (int i = 0; i < kRegisterKeys; ++i) {
      std::uint64_t op =
          recorder_.Begin(999, OpCode::kLookup, RegisterKey(i), "");
      auto got = client.Lookup(RegisterKey(i));
      recorder_.End(op, got.status().code(), got.ok() ? *got : "");
    }
    for (int i = 0; i < kLedgerKeys; ++i) {
      std::uint64_t op =
          recorder_.Begin(999, OpCode::kLookup, LedgerKey(i), "");
      auto got = client.Lookup(LedgerKey(i));
      recorder_.End(op, got.status().code(), got.ok() ? *got : "");
    }
  }

  // Tears the cluster down and reboots it from the persistent stores with
  // the final membership snapshot: every surviving value must reload.
  void VerifyRestart(ZhtClient& reader) {
    std::map<std::string, std::optional<std::string>> expected;
    auto capture = [&](const std::string& key) {
      auto got = reader.Lookup(key);
      if (got.ok()) {
        expected[key] = *got;
      } else if (got.status().code() == StatusCode::kNotFound) {
        expected[key] = std::nullopt;
      } else {
        ADD_FAILURE() << "pre-restart read of '" << key
                      << "': " << got.status().ToString();
      }
    };
    for (int i = 0; i < kRegisterKeys; ++i) capture(RegisterKey(i));
    for (int i = 0; i < kLedgerKeys; ++i) capture(LedgerKey(i));

    MembershipTable snapshot = cluster_->TableSnapshot();
    cluster_.reset();  // full teardown: every store closes its log

    LocalClusterOptions options = BaseOptions();
    options.initial_table = std::move(snapshot);
    auto rebooted = LocalCluster::Start(options);
    ASSERT_TRUE(rebooted.ok()) << rebooted.status().ToString();
    auto client = (*rebooted)->CreateClient(ChaosClient());
    for (const auto& [key, value] : expected) {
      auto got = client->Lookup(key);
      if (value) {
        ASSERT_TRUE(got.ok())
            << key << " lost across restart: " << got.status().ToString();
        EXPECT_EQ(*got, *value) << key << " changed across restart";
      } else {
        EXPECT_EQ(got.status().code(), StatusCode::kNotFound)
            << key << " resurrected across restart";
      }
    }
  }

  const ChaosSchedule& schedule_;
  fs::path dir_;
  std::shared_ptr<CommitGate> gate_ = std::make_shared<CommitGate>();
  std::shared_ptr<FaultPlan> plan_;
  std::unique_ptr<LocalCluster> cluster_;
  HistoryRecorder recorder_;
};

class ChaosScheduleTest : public ::testing::TestWithParam<ChaosSchedule> {};

TEST_P(ChaosScheduleTest, HistoryLinearizesAndSurvivesRestart) {
  const ChaosSchedule& schedule = GetParam();
  ChaosHarness harness(schedule, fs::path(::testing::TempDir()) /
                                     ("zht_chaos_" + std::string(schedule.name)));
  harness.Run();
}

// The fixed seed list (`ctest -L chaos` runs them all). Coverage:
//   drop-request  — lossy_r0, kill_failover_r2, migration_join_r1
//   drop-response — dedup_drop_response_r1, migration_join_r1
//   duplicate     — duplicate_delivery_r1, threaded_delay_dup_r1
//   delay         — threaded_delay_dup_r1, partition_heals_r2
//   partition     — partition_heals_r2
//   replication   — r=0, r=1, r=2; migration via mid-schedule join;
//                   failover via mid-schedule kill (client-only drops keep
//                   server-to-server replication reliable, so acked writes
//                   must survive the kill).
INSTANTIATE_TEST_SUITE_P(
    Schedules, ChaosScheduleTest,
    ::testing::Values(
        ChaosSchedule{
            .name = "lossy_r0",
            .seed = 101,
            .replicas = 0,
            .instances = 4,
            .clients = 3,
            .ops_per_phase = 50,
            .phases = {{{.kind = FaultKind::kDropRequest,
                         .probability = 0.3}},
                       {}},
        },
        ChaosSchedule{
            .name = "dedup_drop_response_r1",
            .seed = 202,
            .replicas = 1,
            .instances = 4,
            .clients = 2,
            .ops_per_phase = 60,
            .phases = {{{.kind = FaultKind::kDropResponse,
                         .op = OpCode::kAppend,
                         .client_only = true,
                         .probability = 0.25},
                        {.kind = FaultKind::kDropResponse,
                         .op = OpCode::kInsert,
                         .client_only = true,
                         .probability = 0.15}},
                       {}},
        },
        ChaosSchedule{
            .name = "duplicate_delivery_r1",
            .seed = 303,
            .replicas = 1,
            .instances = 4,
            .clients = 2,
            .ops_per_phase = 60,
            .phases = {{{.kind = FaultKind::kDuplicate,
                         .probability = 0.35}},
                       {}},
        },
        ChaosSchedule{
            .name = "partition_heals_r2",
            .seed = 404,
            .replicas = 2,
            .instances = 6,
            .clients = 2,
            .ops_per_phase = 40,
            .phases = {{},
                       {{.kind = FaultKind::kDelay,
                         .probability = 0.2,
                         .delay = 1 * kNanosPerMilli}},
                       {}},
            .partition_in_middle = true,
        },
        ChaosSchedule{
            .name = "kill_failover_r2",
            .seed = 505,
            .replicas = 2,
            .instances = 6,
            .clients = 2,
            .ops_per_phase = 40,
            .phases = {{{.kind = FaultKind::kDropRequest,
                         .client_only = true,
                         .probability = 0.2}},
                       {{.kind = FaultKind::kDropRequest,
                         .client_only = true,
                         .probability = 0.2}},
                       {}},
            .mid = MidEvent::kKill,
            .victim = 1,
        },
        ChaosSchedule{
            .name = "migration_join_r1",
            .seed = 606,
            .replicas = 1,
            .instances = 3,
            .clients = 2,
            .ops_per_phase = 40,
            .phases = {{{.kind = FaultKind::kDropRequest,
                         .client_only = true,
                         .probability = 0.2},
                        {.kind = FaultKind::kDropResponse,
                         .op = OpCode::kLookup,
                         .client_only = true,
                         .probability = 0.2}},
                       {{.kind = FaultKind::kDropRequest,
                         .client_only = true,
                         .probability = 0.2}},
                       {}},
            .mid = MidEvent::kJoin,
        },
        ChaosSchedule{
            // Durable acks under fire: group-commit stores with an open
            // commit window, a lossy client path, and a kill between
            // phases. The checker verifies acked ops survive (lost ops may
            // only report kTimeout/kUnavailable), and VerifyRestart proves
            // they reload from the logs.
            .name = "kill_group_commit_r1",
            .seed = 808,
            .replicas = 1,
            .instances = 4,
            .clients = 2,
            .ops_per_phase = 40,
            .phases = {{{.kind = FaultKind::kDropRequest,
                         .client_only = true,
                         .probability = 0.2}},
                       {{.kind = FaultKind::kDropResponse,
                         .client_only = true,
                         .probability = 0.15}},
                       {}},
            .mid = MidEvent::kKill,
            .victim = 2,
            .durability = DurabilityMode::kGroupCommit,
            .max_commit_latency = 200 * kNanosPerMicro,
        },
        ChaosSchedule{
            // The window the overlapped ack opens: the secondary holds and
            // has acked a write whose primary dies inside its own fsync.
            // That write was never acked by the primary, so it may only
            // be ambiguous; every acked op must survive the restart.
            .name = "crash_window_group_commit_r1",
            .seed = 1212,
            .replicas = 1,
            .instances = 4,
            .clients = 2,
            .ops_per_phase = 40,
            .phases = {{{.kind = FaultKind::kDropRequest,
                         .client_only = true,
                         .probability = 0.2}},
                       {{.kind = FaultKind::kDropResponse,
                         .client_only = true,
                         .probability = 0.15}},
                       {}},
            .mid = MidEvent::kCrashWindow,
            .victim = 2,
            .durability = DurabilityMode::kGroupCommit,
            .max_commit_latency = 200 * kNanosPerMicro,
        },
        ChaosSchedule{
            .name = "threaded_delay_dup_r1",
            .seed = 707,
            .replicas = 1,
            .instances = 4,
            .clients = 3,
            .ops_per_phase = 30,
            // Threads make interleaving nondeterministic, so only faults
            // that cannot change any outcome: delays and duplicates (the
            // dup of an append is the same wire request — dedup absorbs it).
            .phases = {{{.kind = FaultKind::kDuplicate,
                         .probability = 0.3},
                        {.kind = FaultKind::kDelay,
                         .probability = 0.2,
                         .delay = 200 * kNanosPerMicro,
                         .delay_jitter = 300 * kNanosPerMicro}},
                       {}},
            .threaded = true,
        },
        ChaosSchedule{
            // Torn rebuild streams: a kill triggers replica rebuilds, then
            // phase 1 drops and duplicates the rebuild RPCs themselves.
            // Dropped carriers fail the End digest and force a re-stream;
            // duplicated carriers must be absorbed (idempotent puts into
            // the landing store); dropped digest probes read as stale and
            // cost only an extra stream. Client-visible history must stay
            // clean throughout.
            .name = "rebuild_faults_r2",
            .seed = 909,
            .replicas = 2,
            .instances = 6,
            .clients = 2,
            .ops_per_phase = 50,
            .phases = {{},
                       {{.kind = FaultKind::kDropRequest,
                         .op = OpCode::kTransferData,
                         .probability = 0.3},
                        {.kind = FaultKind::kDuplicate,
                         .op = OpCode::kTransferData,
                         .probability = 0.3},
                        {.kind = FaultKind::kDropRequest,
                         .op = OpCode::kDigest,
                         .probability = 0.25}},
                       {}},
            .mid = MidEvent::kKill,
            .victim = 1,
        },
        ChaosSchedule{
            // Overlapping failures: the second kill takes out the instance
            // that just inherited the first victim's partitions (and is
            // mid-rebuild as their stream source). Victims are ring-
            // adjacent survivors, so each promotion elects the sync
            // secondary; the repair commanded after the first failure must
            // not leave the second promotion stale.
            .name = "rebuild_source_killed_r2",
            .seed = 1010,
            .replicas = 2,
            .instances = 6,
            .clients = 2,
            .ops_per_phase = 50,
            .phases = {{},
                       {{.kind = FaultKind::kDropRequest,
                         .client_only = true,
                         .probability = 0.15}},
                       {}},
            .mid = MidEvent::kKill,
            .victim = 1,
            .mid2 = MidEvent::kKill,
            .victim2 = 2,
        },
        ChaosSchedule{
            // Rebuild destination killed mid-stream: phase 1 stretches the
            // rebuild carriers with delays so the second kill lands while
            // instance 4 is still being streamed to. The source's End
            // times out and the leg is retried then abandoned; the landing-
            // store protocol means the half-fed destination never wiped
            // its canonical copy.
            .name = "rebuild_dest_killed_r2",
            .seed = 1111,
            .replicas = 2,
            .instances = 6,
            .clients = 2,
            .ops_per_phase = 50,
            .phases = {{},
                       {{.kind = FaultKind::kDelay,
                         .op = OpCode::kTransferData,
                         .probability = 1.0,
                         .delay = 1 * kNanosPerMilli},
                        {.kind = FaultKind::kDropRequest,
                         .client_only = true,
                         .probability = 0.15}},
                       {}},
            .mid = MidEvent::kKill,
            .victim = 1,
            .mid2 = MidEvent::kKill,
            .victim2 = 4,
        }),
    [](const auto& info) { return std::string(info.param.name); });

// Exact replay: the same (schedule, seed) must produce the identical fault
// trace — this is what makes a failing seed reproducible from the test
// name alone.
TEST(ChaosReplayTest, SameSeedSameFaultTrace) {
  auto run = [](std::uint64_t seed) {
    ChaosSchedule schedule{
        .name = "replay_probe",
        .seed = seed,
        .replicas = 1,
        .instances = 4,
        .clients = 2,
        .ops_per_phase = 30,
        .phases = {{{.kind = FaultKind::kDropRequest,
                     .client_only = true,
                     .probability = 0.3}},
                   {}},
    };
    LocalClusterOptions options;
    options.num_instances = schedule.instances;
    options.num_partitions = schedule.instances * 8;
    options.cluster.num_replicas = schedule.replicas;
    options.fault_plan = std::make_shared<FaultPlan>(schedule.seed);
    auto cluster = LocalCluster::Start(options);
    EXPECT_TRUE(cluster.ok());
    int rule = options.fault_plan->AddRule(schedule.phases[0][0]);
    auto client = (*cluster)->CreateClient(ChaosClient());
    Rng rng(seed);
    for (int i = 0; i < 60; ++i) {
      std::string key = "k" + std::to_string(rng.Below(12));
      if (rng.NextDouble() < 0.5) {
        client->Insert(key, "v" + std::to_string(i));
      } else {
        client->Lookup(key);
      }
    }
    options.fault_plan->RemoveRule(rule);
    return options.fault_plan->stats();
  };
  FaultPlanStats a = run(11);
  FaultPlanStats b = run(11);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.dropped_requests, b.dropped_requests);
  EXPECT_GT(a.dropped_requests, 0u);
}

}  // namespace
}  // namespace zht
