// Crash injection for the instance log (DESIGN.md §10): the partition
// stores of one ZHT instance share one log, each record tagged with its
// partition, and each partition checkpoints to its own file stamped with
// the log position it covers. A crash can cut the shared log at any byte
// while the checkpoint files stay as they were. For every cut point each
// partition must recover exactly its acked-durable prefix: every op its
// checkpoint covers, plus every later op whose record precedes the cut.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "novoht/novoht.h"

namespace zht {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kPartitions[] = {1, 2, 7};

struct Event {
  enum Kind { kPut, kRemove, kAppend, kClear, kCheckpoint } kind;
  std::uint64_t partition = 0;
  std::string key;
  std::string value;
  std::uint64_t log_end = 0;  // log size once the event's record was acked
};

// Partition `p` after a crash that cut the log at `cut`.
std::map<std::string, std::string> Model(const std::vector<Event>& events,
                                         std::uint64_t p, std::uint64_t cut) {
  // Ops up to the partition's last checkpoint (Clear included) live in its
  // checkpoint file, whatever the cut.
  std::size_t checkpointed = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (e.partition == p &&
        (e.kind == Event::kClear || e.kind == Event::kCheckpoint)) {
      checkpointed = i + 1;
    }
  }
  std::map<std::string, std::string> model;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (e.partition != p) continue;
    if (i >= checkpointed && e.log_end > cut) break;
    switch (e.kind) {
      case Event::kPut:
        model[e.key] = e.value;
        break;
      case Event::kRemove:
        model.erase(e.key);
        break;
      case Event::kAppend:
        model[e.key] += e.value;
        break;
      case Event::kClear:
        model.clear();
        break;
      case Event::kCheckpoint:
        break;
    }
  }
  return model;
}

class InstanceLogCrashTest : public ::testing::TestWithParam<DurabilityMode> {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("zht_instance_log_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_ / "source");
    fs::create_directories(dir_ / "frozen");
  }
  void TearDown() override { fs::remove_all(dir_); }

  NoVoHTOptions Options() const {
    NoVoHTOptions options;
    options.durability = GetParam();  // wait_for_durable: ack ⇒ durable
    return options;
  }

  static std::string LogPath(const fs::path& dir) {
    return (dir / "i0.log").string();
  }
  static std::string Prefix(const fs::path& dir) {
    return (dir / "i0_p").string();
  }

  // Runs interleaved ops over three partitions with one Clear and one
  // checkpoint in the middle, then freezes the log and checkpoint files
  // as a crash would leave them (before the clean close rewrites them).
  std::vector<Event> RunWorkload() {
    const fs::path source = dir_ / "source";
    auto log = NoVoHTInstanceLog::Open(LogPath(source), Prefix(source),
                                       Options());
    EXPECT_TRUE(log.ok()) << log.status().ToString();
    std::map<std::uint64_t, std::unique_ptr<NoVoHT>> stores;
    for (std::uint64_t p : kPartitions) {
      auto store = (*log)->OpenPartition(p);
      EXPECT_TRUE(store.ok());
      stores[p] = std::move(*store);
    }
    std::vector<Event> events;
    Rng rng(20261017);
    for (int i = 0; i < 45; ++i) {
      Event e;
      e.partition = kPartitions[rng.Below(3)];
      NoVoHT& store = *stores[e.partition];
      e.key = "key" + std::to_string(rng.Below(6));
      if (i == 18) {
        e = {Event::kClear, 2, "", ""};
        EXPECT_TRUE(stores[2]->Clear().ok());
      } else if (i == 30) {
        e = {Event::kCheckpoint, 7, "", ""};
        EXPECT_TRUE(stores[7]->Compact().ok());
      } else {
        const double dice = rng.NextDouble();
        if (dice < 0.55) {
          e.kind = Event::kPut;
          e.value = rng.AsciiString(6 + i % 17);
          EXPECT_TRUE(store.Put(e.key, e.value).ok());
        } else if (dice < 0.75) {
          e.kind = Event::kAppend;
          e.value = rng.AsciiString(4);
          EXPECT_TRUE(store.Append(e.key, e.value).ok());
        } else {
          e.kind = Event::kRemove;
          Status status = store.Remove(e.key);
          EXPECT_TRUE(status.ok() || status.code() == StatusCode::kNotFound);
        }
      }
      e.log_end = fs::file_size(LogPath(source));
      events.push_back(e);
    }
    for (const auto& entry : fs::directory_iterator(source)) {
      fs::copy_file(entry.path(), dir_ / "frozen" / entry.path().filename());
    }
    return events;
  }

  // The frozen files with the log cut at `cut`, in a fresh directory.
  fs::path CrashedAt(std::uint64_t cut) {
    const fs::path crashed = dir_ / "crashed";
    fs::remove_all(crashed);
    fs::create_directories(crashed);
    for (const auto& entry : fs::directory_iterator(dir_ / "frozen")) {
      fs::copy_file(entry.path(), crashed / entry.path().filename());
    }
    fs::resize_file(LogPath(crashed), cut);
    return crashed;
  }

  fs::path dir_;
};

TEST_P(InstanceLogCrashTest, EveryCutPointRecoversEachPartitionsAckedPrefix) {
  const std::vector<Event> events = RunWorkload();
  const std::uint64_t log_size = fs::file_size(LogPath(dir_ / "frozen"));
  ASSERT_EQ(log_size, events.back().log_end);
  ASSERT_TRUE(fs::exists(Prefix(dir_ / "frozen") + "2.novoht"));
  ASSERT_TRUE(fs::exists(Prefix(dir_ / "frozen") + "7.novoht"));

  // Reopens only read the frozen state back: skip the real fsyncs.
  NoVoHTOptions reopen = Options();
  reopen.fsync_hook = [](int) { return 0; };
  for (std::uint64_t cut = 0; cut <= log_size; ++cut) {
    const fs::path crashed = CrashedAt(cut);
    auto log = NoVoHTInstanceLog::Open(LogPath(crashed), Prefix(crashed),
                                       reopen);
    ASSERT_TRUE(log.ok()) << "cut at byte " << cut << " of " << log_size
                          << " misreported as: " << log.status().ToString();
    // Sampled (every reopen would dominate the runtime), including every
    // cut inside the log's base record: the recovered log takes writes
    // that survive a second crash.
    const bool rewrite = cut < 16 || cut % 256 == 0;
    for (std::uint64_t p : kPartitions) {
      auto store = (*log)->OpenPartition(p);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      const auto model = Model(events, p, cut);
      ASSERT_EQ((*store)->Size(), model.size())
          << "partition " << p << ", cut at byte " << cut;
      for (const auto& [key, value] : model) {
        auto got = (*store)->Get(key);
        ASSERT_TRUE(got.ok()) << "acked op lost: partition " << p << " key "
                              << key << ", cut at byte " << cut;
        ASSERT_EQ(*got, value) << "partition " << p << ", cut at byte " << cut;
      }
      if (rewrite) {
        ASSERT_TRUE((*store)->Put("postcrash", std::to_string(p)).ok());
      }
    }
    if (!rewrite) continue;
    // Crash again with the writes acked, and recover a copy of the files.
    const fs::path recrashed = dir_ / "recrashed";
    fs::remove_all(recrashed);
    fs::create_directories(recrashed);
    for (const auto& entry : fs::directory_iterator(crashed)) {
      fs::copy_file(entry.path(), recrashed / entry.path().filename());
    }
    auto again = NoVoHTInstanceLog::Open(LogPath(recrashed), Prefix(recrashed),
                                         reopen);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    for (std::uint64_t p : kPartitions) {
      auto store = (*again)->OpenPartition(p);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      auto got = (*store)->Get("postcrash");
      ASSERT_TRUE(got.ok()) << "acked write after recovery lost: partition "
                            << p << ", first cut at byte " << cut;
      EXPECT_EQ(*got, std::to_string(p));
      EXPECT_EQ((*store)->Size(), Model(events, p, cut).size() + 1)
          << "partition " << p << ", first cut at byte " << cut;
    }
  }
}

// Damage before the tail is corruption, as in a store's own log.
TEST_P(InstanceLogCrashTest, DamageBeforeTailIsCorruption) {
  const std::vector<Event> events = RunWorkload();
  const fs::path crashed = CrashedAt(fs::file_size(LogPath(dir_ / "frozen")));
  const std::uint64_t offset = events[events.size() / 2].log_end + 5;
  {
    std::fstream f(LogPath(crashed),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.get(byte);
    f.seekp(static_cast<std::streamoff>(offset));
    f.put(static_cast<char>(byte ^ 0x5A));
  }
  auto log =
      NoVoHTInstanceLog::Open(LogPath(crashed), Prefix(crashed), Options());
  ASSERT_FALSE(log.ok());
  EXPECT_EQ(log.status().code(), StatusCode::kCorruption);
}

// A clean close leaves every partition's checkpoint holding exactly its
// live pairs, readable by a plain standalone NoVoHT, and an empty log.
TEST_P(InstanceLogCrashTest, CleanCloseLeavesStandaloneCheckpoints) {
  const fs::path source = dir_ / "source";
  std::map<std::uint64_t, std::map<std::string, std::string>> live;
  {
    auto log =
        NoVoHTInstanceLog::Open(LogPath(source), Prefix(source), Options());
    ASSERT_TRUE(log.ok());
    for (std::uint64_t p : kPartitions) {
      auto store = (*log)->OpenPartition(p);
      ASSERT_TRUE(store.ok());
      for (int i = 0; i < 20; ++i) {
        const std::string key = "k" + std::to_string(i % 7);
        const std::string value = std::to_string(p) + "-" + std::to_string(i);
        ASSERT_TRUE((*store)->Put(key, value).ok());
        live[p][key] = value;
      }
      ASSERT_TRUE((*store)->Remove("k0").ok());
      live[p].erase("k0");
    }
  }
  for (std::uint64_t p : kPartitions) {
    NoVoHTOptions standalone;
    standalone.path = Prefix(source) + std::to_string(p) + ".novoht";
    auto store = NoVoHT::Open(standalone);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ((*store)->Size(), live[p].size());
    for (const auto& [key, value] : live[p]) {
      EXPECT_EQ((*store)->Get(key).value(), value);
    }
  }
  // The reopened log starts empty and the partitions come back whole.
  auto log =
      NoVoHTInstanceLog::Open(LogPath(source), Prefix(source), Options());
  ASSERT_TRUE(log.ok());
  EXPECT_LT(log->get()->log().size(), 64u);
  for (std::uint64_t p : kPartitions) {
    auto store = (*log)->OpenPartition(p);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ((*store)->Size(), live[p].size());
  }
}

// Past the GC thresholds the flusher checkpoints every partition and
// truncates the log; positions keep growing, so later records still sort
// after the checkpoints across a reopen.
TEST_P(InstanceLogCrashTest, GcCheckpointsEveryPartitionAndTruncates) {
  NoVoHTOptions options = Options();
  options.gc_min_log_bytes = 256;  // x 2 open stores
  options.gc_garbage_ratio = 0.5;
  const fs::path source = dir_ / "source";
  std::uint64_t appended = 0;
  {
    auto log =
        NoVoHTInstanceLog::Open(LogPath(source), Prefix(source), options);
    ASSERT_TRUE(log.ok());
    auto hot = (*log)->OpenPartition(1);
    auto cold = (*log)->OpenPartition(2);
    ASSERT_TRUE(hot.ok() && cold.ok());
    for (int i = 0; i < 400; ++i) {
      const std::uint64_t before = (*log)->log().size();
      const std::string value = std::string(32, 'x') + std::to_string(i);
      ASSERT_TRUE((*hot)->Put("hot", value).ok());
      if (i % 10 == 0) {
        ASSERT_TRUE((*cold)->Append("cold", std::to_string(i % 7)).ok());
      }
      const std::uint64_t after = (*log)->log().size();
      if (after > before) appended += after - before;
    }
    // The last request may still be queued on the flusher.
    for (int wait = 0; wait < 500 && (*log)->log().size() >= 2048; ++wait) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_LT((*log)->log().size(), 2048u);
    EXPECT_GT(appended, 8192u);
    EXPECT_TRUE(fs::exists(Prefix(source) + "1.novoht"));
    EXPECT_EQ((*hot)->Get("hot").value(), std::string(32, 'x') + "399");
    ASSERT_TRUE((*hot)->Put("hot", "after-gc").ok());
  }
  auto log = NoVoHTInstanceLog::Open(LogPath(source), Prefix(source), options);
  ASSERT_TRUE(log.ok());
  auto hot = (*log)->OpenPartition(1);
  auto cold = (*log)->OpenPartition(2);
  ASSERT_TRUE(hot.ok() && cold.ok());
  EXPECT_EQ((*hot)->Get("hot").value(), "after-gc");
  std::string cold_value;
  for (int i = 0; i < 400; i += 10) cold_value += std::to_string(i % 7);
  EXPECT_EQ((*cold)->Get("cold").value(), cold_value);
}

// Shared-log stores cannot evict values: the offsets would point into a
// log that checkpoints truncate.
TEST_P(InstanceLogCrashTest, ResidencyCapIsRejected) {
  NoVoHTOptions options = Options();
  options.max_resident_values = 8;
  const fs::path source = dir_ / "source";
  auto log = NoVoHTInstanceLog::Open(LogPath(source), Prefix(source), options);
  ASSERT_FALSE(log.ok());
  EXPECT_EQ(log.status().code(), StatusCode::kInvalidArgument);
}

std::string ModeName(const ::testing::TestParamInfo<DurabilityMode>& info) {
  return DurabilityModeName(info.param);
}

INSTANTIATE_TEST_SUITE_P(AckedModes, InstanceLogCrashTest,
                         ::testing::Values(DurabilityMode::kEveryOp,
                                           DurabilityMode::kGroupCommit),
                         ModeName);

}  // namespace
}  // namespace zht
