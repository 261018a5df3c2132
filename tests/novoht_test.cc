#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/rng.h"
#include "novoht/btree_db.h"
#include "novoht/hashdb_file.h"
#include "novoht/memory_map.h"
#include "novoht/novoht.h"

namespace zht {
namespace {

namespace fs = std::filesystem;

class TempDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("zht_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

// ---------------------------------------------------------------- NoVoHT --

using NoVoHTTest = TempDirTest;

TEST_F(NoVoHTTest, InMemoryCrud) {
  auto store = NoVoHT::Open(NoVoHTOptions{});
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE((*store)->Put("k1", "v1").ok());
  EXPECT_TRUE((*store)->Put("k2", "v2").ok());
  EXPECT_EQ((*store)->Get("k1").value(), "v1");
  EXPECT_EQ((*store)->Size(), 2u);
  EXPECT_TRUE((*store)->Remove("k1").ok());
  EXPECT_EQ((*store)->Get("k1").status().code(), StatusCode::kNotFound);
  EXPECT_EQ((*store)->Size(), 1u);
}

TEST_F(NoVoHTTest, PutOverwrites) {
  auto store = NoVoHT::Open(NoVoHTOptions{});
  ASSERT_TRUE(store.ok());
  (*store)->Put("k", "old");
  (*store)->Put("k", "new");
  EXPECT_EQ((*store)->Get("k").value(), "new");
  EXPECT_EQ((*store)->Size(), 1u);
}

TEST_F(NoVoHTTest, RemoveMissingIsNotFound) {
  auto store = NoVoHT::Open(NoVoHTOptions{});
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->Remove("ghost").code(), StatusCode::kNotFound);
}

TEST_F(NoVoHTTest, AppendConcatenatesAndCreates) {
  auto store = NoVoHT::Open(NoVoHTOptions{});
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE((*store)->Append("list", "a").ok());   // creates
  EXPECT_TRUE((*store)->Append("list", ",b").ok());  // extends
  EXPECT_EQ((*store)->Get("list").value(), "a,b");
  EXPECT_TRUE((*store)->supports_append());
}

TEST_F(NoVoHTTest, EmptyValueAndBinaryData) {
  auto store = NoVoHT::Open(NoVoHTOptions{});
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE((*store)->Put("empty", "").ok());
  EXPECT_EQ((*store)->Get("empty").value(), "");
  std::string binary("\x00\x01\xff\x7f", 4);
  EXPECT_TRUE((*store)->Put("bin", binary).ok());
  EXPECT_EQ((*store)->Get("bin").value(), binary);
}

TEST_F(NoVoHTTest, ResizeKeepsAllEntries) {
  NoVoHTOptions options;
  options.initial_buckets = 4;
  options.max_load_factor = 1.0;
  auto store = NoVoHT::Open(options);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE((*store)->Put("key" + std::to_string(i),
                              "value" + std::to_string(i)).ok());
  }
  EXPECT_GT((*store)->stats().resizes, 0u);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ((*store)->Get("key" + std::to_string(i)).value(),
              "value" + std::to_string(i));
  }
}

TEST_F(NoVoHTTest, MaxBucketsCapsIndexGrowth) {
  NoVoHTOptions options;
  options.initial_buckets = 4;
  options.max_load_factor = 1.0;
  options.max_buckets = 16;
  auto store = NoVoHT::Open(options);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 200; ++i) {
    (*store)->Put("k" + std::to_string(i), "v");
  }
  EXPECT_LE((*store)->stats().buckets, 16u);
  EXPECT_EQ((*store)->Size(), 200u);
}

TEST_F(NoVoHTTest, MaxEntriesEnforced) {
  NoVoHTOptions options;
  options.max_entries = 3;
  auto store = NoVoHT::Open(options);
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE((*store)->Put("a", "1").ok());
  EXPECT_TRUE((*store)->Put("b", "2").ok());
  EXPECT_TRUE((*store)->Put("c", "3").ok());
  EXPECT_EQ((*store)->Put("d", "4").code(), StatusCode::kCapacity);
  // Overwriting an existing key is still allowed at the cap.
  EXPECT_TRUE((*store)->Put("a", "1b").ok());
  EXPECT_EQ((*store)->Append("e", "x").code(), StatusCode::kCapacity);
}

TEST_F(NoVoHTTest, PersistsAcrossReopen) {
  NoVoHTOptions options;
  options.path = Path("store.nvt");
  {
    auto store = NoVoHT::Open(options);
    ASSERT_TRUE(store.ok());
    (*store)->Put("durable", "yes");
    (*store)->Put("gone", "soon");
    (*store)->Remove("gone");
    (*store)->Append("log", "a");
    (*store)->Append("log", "b");
  }
  auto reopened = NoVoHT::Open(options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Get("durable").value(), "yes");
  EXPECT_EQ((*reopened)->Get("gone").status().code(), StatusCode::kNotFound);
  EXPECT_EQ((*reopened)->Get("log").value(), "ab");
  EXPECT_EQ((*reopened)->Size(), 2u);
  EXPECT_GT((*reopened)->stats().recovered_records, 0u);
}

TEST_F(NoVoHTTest, TornLogTailIsTrimmed) {
  NoVoHTOptions options;
  options.path = Path("torn.nvt");
  {
    auto store = NoVoHT::Open(options);
    ASSERT_TRUE(store.ok());
    (*store)->Put("full", "record");
    (*store)->Put("torn", "record");
  }
  // Chop bytes off the tail to simulate a crash mid-write.
  auto size = fs::file_size(options.path);
  fs::resize_file(options.path, size - 3);

  auto reopened = NoVoHT::Open(options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Get("full").value(), "record");
  EXPECT_EQ((*reopened)->Get("torn").status().code(), StatusCode::kNotFound);
  // And the store remains writable afterwards.
  EXPECT_TRUE((*reopened)->Put("after", "crash").ok());
}

TEST_F(NoVoHTTest, CorruptMidLogRejected) {
  NoVoHTOptions options;
  options.path = Path("corrupt.nvt");
  {
    auto store = NoVoHT::Open(options);
    ASSERT_TRUE(store.ok());
    (*store)->Put("aaa", "111");
    (*store)->Put("bbb", "222");
  }
  // Flip a byte in the *first* record's payload: CRC mismatch mid-log.
  {
    std::fstream f(options.path,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8);
    f.put('X');
  }
  auto reopened = NoVoHT::Open(options);
  EXPECT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
}

TEST_F(NoVoHTTest, CompactionShrinksLogAndPreservesData) {
  NoVoHTOptions options;
  options.path = Path("gc.nvt");
  options.gc_min_log_bytes = 1;      // always eligible
  options.gc_garbage_ratio = 100.0;  // but never auto-trigger
  auto store = NoVoHT::Open(options);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 100; ++i) {
    (*store)->Put("churn", "value" + std::to_string(i));  // 99 dead records
  }
  (*store)->Put("keep", "me");
  auto before = (*store)->stats();
  ASSERT_TRUE((*store)->Compact().ok());
  auto after = (*store)->stats();
  EXPECT_LT(after.log_bytes, before.log_bytes);
  EXPECT_EQ(after.dead_bytes, 0u);
  EXPECT_EQ(after.gc_runs, 1u);
  EXPECT_EQ((*store)->Get("churn").value(), "value99");
  EXPECT_EQ((*store)->Get("keep").value(), "me");

  // Reopen from the compacted log.
  (*store).reset();  // close first
  auto reopened = NoVoHT::Open(options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Get("churn").value(), "value99");
}

// Observability of garbage collection: each compaction records its
// duration into a histogram and the cumulative gc time; live_bytes tracks
// log_bytes minus dead_bytes.
TEST_F(NoVoHTTest, GcDurationAndLiveBytesExposed) {
  NoVoHTOptions options;
  options.path = Path("gc_metrics.nvt");
  options.gc_min_log_bytes = 1;
  options.gc_garbage_ratio = 100.0;  // manual Compact() only
  auto store = NoVoHT::Open(options);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 50; ++i) {
    (*store)->Put("k", "value" + std::to_string(i));
  }
  auto before = (*store)->stats();
  EXPECT_EQ(before.live_bytes, before.log_bytes - before.dead_bytes);
  EXPECT_GT(before.dead_bytes, 0u);
  EXPECT_EQ((*store)->GcDurationHistogram().count, 0u);

  ASSERT_TRUE((*store)->Compact().ok());
  ASSERT_TRUE((*store)->Compact().ok());

  auto after = (*store)->stats();
  EXPECT_EQ(after.live_bytes, after.log_bytes);  // no garbage left
  HistogramData gc = (*store)->GcDurationHistogram();
  EXPECT_EQ(gc.count, 2u);
  EXPECT_EQ(gc.sum, after.gc_nanos_total);
  EXPECT_GT(after.gc_nanos_total, 0u);
}

TEST_F(NoVoHTTest, AutoGcTriggersOnGarbageRatio) {
  NoVoHTOptions options;
  options.path = Path("autogc.nvt");
  options.gc_min_log_bytes = 512;
  options.gc_garbage_ratio = 0.5;
  auto store = NoVoHT::Open(options);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE((*store)->Put("hot-key", "v" + std::to_string(i)).ok());
  }
  EXPECT_GT((*store)->stats().gc_runs, 0u);
  EXPECT_EQ((*store)->Get("hot-key").value(), "v1999");
}

TEST_F(NoVoHTTest, ForEachVisitsLivePairsOnly) {
  auto store = NoVoHT::Open(NoVoHTOptions{});
  ASSERT_TRUE(store.ok());
  (*store)->Put("a", "1");
  (*store)->Put("b", "2");
  (*store)->Put("c", "3");
  (*store)->Remove("b");
  std::map<std::string, std::string> seen;
  (*store)->ForEach([&seen](std::string_view k, std::string_view v) {
    seen.emplace(k, v);
  });
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen["a"], "1");
  EXPECT_EQ(seen["c"], "3");
}

// Paper §IV.B: persistence adds only microseconds; verify the WAL is
// actually written per op.
TEST_F(NoVoHTTest, EveryMutationHitsTheLog) {
  NoVoHTOptions options;
  options.path = Path("wal.nvt");
  auto store = NoVoHT::Open(options);
  ASSERT_TRUE(store.ok());
  auto log_size = [&] { return fs::file_size(options.path); };
  (*store)->Put("k", "v");
  auto s1 = log_size();
  EXPECT_GT(s1, 0u);
  (*store)->Append("k", "v2");
  auto s2 = log_size();
  EXPECT_GT(s2, s1);
  (*store)->Remove("k");
  EXPECT_GT(log_size(), s2);
}

// ------------------------------------------------- NoVoHT durability ----

// A syncing log writes inside space allocated ahead of its last record, so
// a record's fdatasync commits no change of file size; a clean close gives
// the space back. A `none` log never preallocates: its file size is exact.
TEST_F(NoVoHTTest, SyncingLogPreallocatesAndCleanCloseTruncates) {
  {
    const std::string probe = Path("probe");
    const int fd = ::open(probe.c_str(), O_WRONLY | O_CREAT, 0644);
    ASSERT_GE(fd, 0);
    const int rc = ::fallocate(fd, 0, 0, 4096);
    ::close(fd);
    if (rc != 0) GTEST_SKIP() << "fallocate unsupported here";
  }
  constexpr std::uint64_t kStep = 1u << 20;
  for (DurabilityMode mode :
       {DurabilityMode::kNone, DurabilityMode::kEveryOp,
        DurabilityMode::kGroupCommit}) {
    NoVoHTOptions options;
    options.path = Path(std::string("prealloc_") + DurabilityModeName(mode));
    options.durability = mode;
    std::uint64_t logical = 0;
    {
      auto store = NoVoHT::Open(options);
      ASSERT_TRUE(store.ok());
      for (int i = 0; i < 50; ++i) {
        ASSERT_TRUE((*store)->Put("k" + std::to_string(i), "v").ok());
        logical = (*store)->stats().log_bytes;
        const std::uint64_t size = fs::file_size(options.path);
        if (mode == DurabilityMode::kNone) {
          ASSERT_EQ(size, logical) << "op " << i;
        } else {
          ASSERT_EQ(size % kStep, 0u) << DurabilityModeName(mode);
          ASSERT_GT(size, logical) << DurabilityModeName(mode);
        }
      }
    }
    EXPECT_EQ(fs::file_size(options.path), logical)
        << DurabilityModeName(mode);
    auto reopened = NoVoHT::Open(options);
    ASSERT_TRUE(reopened.ok());
    EXPECT_EQ((*reopened)->Size(), 50u);
  }
}

TEST_F(NoVoHTTest, EveryOpFsyncFailurePoisonsStore) {
  NoVoHTOptions options;
  options.path = Path("fsfail.nvt");
  options.durability = DurabilityMode::kEveryOp;
  int calls = 0;
  options.fsync_hook = [&calls](int) { return ++calls > 1 ? -1 : 0; };
  auto store = NoVoHT::Open(options);
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE((*store)->Put("ok", "synced").ok());

  Status failed = (*store)->Put("lost", "maybe");
  EXPECT_EQ(failed.code(), StatusCode::kInternal);
  auto stats = (*store)->stats();
  EXPECT_TRUE(stats.read_only);
  EXPECT_GE(stats.fsync_errors, 1u);
  // The store stays poisoned: every further mutation fails, reads still work.
  EXPECT_EQ((*store)->Put("again", "no").code(), StatusCode::kInternal);
  EXPECT_EQ((*store)->Remove("ok").code(), StatusCode::kInternal);
  EXPECT_EQ((*store)->Get("ok").value(), "synced");
}

TEST_F(NoVoHTTest, GroupCommitFsyncFailureFailsWaiters) {
  NoVoHTOptions options;
  options.path = Path("gcfail.nvt");
  options.durability = DurabilityMode::kGroupCommit;
  options.fsync_hook = [](int) { return -1; };
  auto store = NoVoHT::Open(options);
  ASSERT_TRUE(store.ok());
  // wait_for_durable defaults to true: the blocked writer gets the error.
  EXPECT_EQ((*store)->Put("k", "v").code(), StatusCode::kInternal);
  auto stats = (*store)->stats();
  EXPECT_TRUE(stats.read_only);
  EXPECT_GE(stats.fsync_errors, 1u);
}

TEST_F(NoVoHTTest, GroupCommitAcksAreDurable) {
  NoVoHTOptions options;
  options.path = Path("gc.nvt");
  options.durability = DurabilityMode::kGroupCommit;
  {
    auto store = NoVoHT::Open(options);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(
          (*store)->Put("k" + std::to_string(i), std::to_string(i)).ok());
    }
    auto stats = (*store)->stats();
    EXPECT_GE(stats.group_commits, 1u);
    StoreDurabilityMetrics metrics;
    ASSERT_TRUE((*store)->durability_metrics(&metrics));
    EXPECT_GE(metrics.group_commits, 1u);
    EXPECT_GT(metrics.fsync_micros.count, 0u);
  }
  auto reopened = NoVoHT::Open(options);
  ASSERT_TRUE(reopened.ok());
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ((*reopened)->Get("k" + std::to_string(i)).value(),
              std::to_string(i));
  }
}

TEST_F(NoVoHTTest, DeferredWaitHandshake) {
  NoVoHTOptions options;
  options.path = Path("handshake.nvt");
  options.durability = DurabilityMode::kGroupCommit;
  options.wait_for_durable = false;  // the server-side acking discipline
  auto store = NoVoHT::Open(options);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->last_commit_token(), 0u);
  ASSERT_TRUE((*store)->Put("a", "1").ok());
  std::uint64_t t1 = (*store)->last_commit_token();
  EXPECT_GT(t1, 0u);
  ASSERT_TRUE((*store)->Put("b", "2").ok());
  std::uint64_t t2 = (*store)->last_commit_token();
  EXPECT_GT(t2, t1);
  EXPECT_TRUE((*store)->WaitDurable(t2).ok());
  // Waiting on an already-durable (or zero) token is a no-op.
  EXPECT_TRUE((*store)->WaitDurable(t1).ok());
  EXPECT_TRUE((*store)->WaitDurable(0).ok());
}

TEST_F(NoVoHTTest, GroupCommitSurvivesCompaction) {
  NoVoHTOptions options;
  options.path = Path("gc_compact.nvt");
  options.durability = DurabilityMode::kGroupCommit;
  auto store = NoVoHT::Open(options);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE((*store)->Put("k", std::string(64, 'a' + (i % 26))).ok());
  }
  ASSERT_TRUE((*store)->Compact().ok());
  // Commit tokens are sequence numbers, not byte offsets: the pipeline keeps
  // working after the log is rewritten.
  ASSERT_TRUE((*store)->Put("post", "compact").ok());
  EXPECT_TRUE((*store)->WaitDurable((*store)->last_commit_token()).ok());
  EXPECT_EQ((*store)->Get("post").value(), "compact");
}

// A checkpoint's rename is durable only once its directory is synced: a
// crash could otherwise bring back the log the checkpoint replaced (for
// Clear(), the cleared pairs) and lose writes acked into the new file.
TEST_F(NoVoHTTest, CheckpointRenameSyncsItsDirectory) {
  NoVoHTOptions options;
  options.path = Path("dirsync.nvt");
  options.durability = DurabilityMode::kGroupCommit;
  struct Sync {
    bool directory;
    bool renamed;  // the checkpoint file had replaced the log by then
  };
  std::vector<Sync> syncs;
  const std::string tmp = options.path + ".tmp";
  options.fsync_hook = [&syncs, tmp](int fd) {
    struct stat st;
    const bool directory = ::fstat(fd, &st) == 0 && S_ISDIR(st.st_mode);
    syncs.push_back({directory, !fs::exists(tmp)});
    return ::fsync(fd);
  };
  auto store = NoVoHT::Open(options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("gone", "soon").ok());
  for (bool clear : {false, true}) {
    syncs.clear();
    ASSERT_TRUE((clear ? (*store)->Clear() : (*store)->Compact()).ok());
    ASSERT_FALSE(syncs.empty());
    EXPECT_TRUE(syncs.back().directory) << (clear ? "Clear" : "Compact");
    EXPECT_TRUE(syncs.back().renamed) << (clear ? "Clear" : "Compact");
  }
  EXPECT_EQ((*store)->Size(), 0u);
}

// Satellite 2 regression: damage to a *length field* mid-log must be
// reported as corruption, not silently truncate every later record.
TEST_F(NoVoHTTest, MidLogLengthFieldDamageRejected) {
  NoVoHTOptions options;
  options.path = Path("lenfield.nvt");
  std::uint64_t first_end = 0;
  {
    auto store = NoVoHT::Open(options);
    ASSERT_TRUE(store.ok());
    (*store)->Put("aaa", "111");
    first_end = fs::file_size(options.path);
    (*store)->Put("bbb", "222");
    (*store)->Put("ccc", "333");
  }
  {
    // Corrupt the second record's klen varint (crc:4 + type:1 → offset 5).
    std::fstream f(options.path,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(first_end + 5));
    f.put(static_cast<char>(0xEF));
  }
  auto reopened = NoVoHT::Open(options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
}

// A torn *length field* in the final record is still a torn tail: trimmed,
// not corruption.
TEST_F(NoVoHTTest, TornTailLengthFieldTrimmed) {
  NoVoHTOptions options;
  options.path = Path("tornlen.nvt");
  std::uint64_t first_end = 0;
  {
    auto store = NoVoHT::Open(options);
    ASSERT_TRUE(store.ok());
    (*store)->Put("kept", "value");
    first_end = fs::file_size(options.path);
    (*store)->Put("torn", std::string(300, 'x'));  // vlen takes 2 bytes
  }
  // Truncate inside the last record's header, mid-varint.
  fs::resize_file(options.path, first_end + 6);

  auto reopened = NoVoHT::Open(options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Get("kept").value(), "value");
  EXPECT_EQ((*reopened)->Get("torn").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE((*reopened)->Put("after", "crash").ok());
}

// Satellite 3: recovery streams the log through a bounded window; a log far
// larger than the window (including one over-sized record) replays fully.
TEST_F(NoVoHTTest, RecoveryStreamsLargeLog) {
  NoVoHTOptions options;
  options.path = Path("biglog.nvt");
  options.recover_buffer_bytes = 4096;
  options.gc_garbage_ratio = 100.0;  // keep every record in the log
  const std::string big(64 * 1024, 'B');  // one record >> the window
  {
    auto store = NoVoHT::Open(options);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE((*store)->Put("key" + std::to_string(i),
                                "value" + std::to_string(i)).ok());
    }
    ASSERT_TRUE((*store)->Put("big", big).ok());
    ASSERT_TRUE((*store)->Remove("key0").ok());
  }
  ASSERT_GT(fs::file_size(options.path), 8 * options.recover_buffer_bytes);

  auto reopened = NoVoHT::Open(options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Size(), 500u);  // 500 keys - key0 + big
  EXPECT_EQ((*reopened)->Get("key0").status().code(), StatusCode::kNotFound);
  EXPECT_EQ((*reopened)->Get("key499").value(), "value499");
  EXPECT_EQ((*reopened)->Get("big").value(), big);
  EXPECT_EQ((*reopened)->stats().recovered_records, 502u);
}

// ------------------------------------------------------------- HashDB ----

using HashDBTest = TempDirTest;

TEST_F(HashDBTest, CrudOnDisk) {
  auto db = HashDBFile::Open(Path("hash.db"), 64);
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE((*db)->Put("k1", "v1").ok());
  EXPECT_EQ((*db)->Get("k1").value(), "v1");
  EXPECT_TRUE((*db)->Put("k1", "v2").ok());  // same-size overwrite in place
  EXPECT_EQ((*db)->Get("k1").value(), "v2");
  EXPECT_TRUE((*db)->Put("k1", "a-much-longer-value").ok());  // relocate
  EXPECT_EQ((*db)->Get("k1").value(), "a-much-longer-value");
  EXPECT_EQ((*db)->Size(), 1u);
  EXPECT_TRUE((*db)->Remove("k1").ok());
  EXPECT_EQ((*db)->Get("k1").status().code(), StatusCode::kNotFound);
}

TEST_F(HashDBTest, ChainsInOneBucket) {
  auto db = HashDBFile::Open(Path("chain.db"), 1);  // everything collides
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE((*db)->Put("key" + std::to_string(i),
                           "val" + std::to_string(i)).ok());
  }
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ((*db)->Get("key" + std::to_string(i)).value(),
              "val" + std::to_string(i));
  }
  EXPECT_EQ((*db)->Size(), 50u);
}

TEST_F(HashDBTest, PersistsAcrossReopen) {
  std::string path = Path("reopen.db");
  {
    auto db = HashDBFile::Open(path, 16);
    ASSERT_TRUE(db.ok());
    (*db)->Put("stay", "here");
    (*db)->Put("dele", "ted");
    (*db)->Remove("dele");
  }
  auto db = HashDBFile::Open(path, 16);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->Get("stay").value(), "here");
  EXPECT_EQ((*db)->Get("dele").status().code(), StatusCode::kNotFound);
  EXPECT_EQ((*db)->Size(), 1u);
}

TEST_F(HashDBTest, AppendUnsupported) {
  auto db = HashDBFile::Open(Path("na.db"), 8);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->Append("k", "v").code(), StatusCode::kNotSupported);
  EXPECT_FALSE((*db)->supports_append());
}

TEST_F(HashDBTest, ForEachSeesNewestVersion) {
  auto db = HashDBFile::Open(Path("fe.db"), 4);
  ASSERT_TRUE(db.ok());
  (*db)->Put("k", "old-longer-value");
  (*db)->Put("k", "new");  // different size → relocated record
  std::map<std::string, std::string> seen;
  (*db)->ForEach([&seen](std::string_view k, std::string_view v) {
    seen.emplace(k, v);
  });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen["k"], "new");
}

// -------------------------------------------------------------- BTreeDB --

using BTreeTest = TempDirTest;

TEST_F(BTreeTest, CrudSmall) {
  BTreeDBOptions options;
  options.path = Path("btree.db");
  auto db = BTreeDB::Open(options);
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE((*db)->Put("b", "2").ok());
  EXPECT_TRUE((*db)->Put("a", "1").ok());
  EXPECT_TRUE((*db)->Put("c", "3").ok());
  EXPECT_EQ((*db)->Get("a").value(), "1");
  EXPECT_EQ((*db)->Get("b").value(), "2");
  EXPECT_TRUE((*db)->Put("b", "2b").ok());
  EXPECT_EQ((*db)->Get("b").value(), "2b");
  EXPECT_EQ((*db)->Size(), 3u);
  EXPECT_TRUE((*db)->Remove("b").ok());
  EXPECT_EQ((*db)->Get("b").status().code(), StatusCode::kNotFound);
  EXPECT_EQ((*db)->Remove("b").code(), StatusCode::kNotFound);
}

TEST_F(BTreeTest, ManyKeysSplitPages) {
  BTreeDBOptions options;
  options.path = Path("split.db");
  options.page_size = 512;  // force frequent splits
  options.cache_pages = 8;
  auto db = BTreeDB::Open(options);
  ASSERT_TRUE(db.ok());
  Rng rng(77);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 3000; ++i) {
    std::string key = rng.AsciiString(12);
    std::string value = rng.AsciiString(20);
    ASSERT_TRUE((*db)->Put(key, value).ok()) << i;
    model[key] = value;
  }
  EXPECT_EQ((*db)->Size(), model.size());
  for (const auto& [key, value] : model) {
    EXPECT_EQ((*db)->Get(key).value(), value);
  }
  EXPECT_GT((*db)->cache_misses(), 0u);  // it actually went to disk
}

TEST_F(BTreeTest, ForEachIsSorted) {
  BTreeDBOptions options;
  options.path = Path("sorted.db");
  options.page_size = 256;
  auto db = BTreeDB::Open(options);
  ASSERT_TRUE(db.ok());
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    (*db)->Put(rng.AsciiString(10), "v");
  }
  std::vector<std::string> keys;
  (*db)->ForEach([&keys](std::string_view k, std::string_view) {
    keys.emplace_back(k);
  });
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(keys.size(), (*db)->Size());
}

TEST_F(BTreeTest, PersistsAcrossReopen) {
  BTreeDBOptions options;
  options.path = Path("persist.db");
  options.page_size = 512;
  {
    auto db = BTreeDB::Open(options);
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(
          (*db)->Put("key" + std::to_string(i), "v" + std::to_string(i)).ok());
    }
  }
  auto db = BTreeDB::Open(options);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->Size(), 500u);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ((*db)->Get("key" + std::to_string(i)).value(),
              "v" + std::to_string(i));
  }
}

TEST_F(BTreeTest, OversizedEntryRejected) {
  BTreeDBOptions options;
  options.path = Path("big.db");
  options.page_size = 256;
  auto db = BTreeDB::Open(options);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->Put("k", std::string(1000, 'x')).code(),
            StatusCode::kCapacity);
}

// ------------------------------------------------------------ MemoryMap --

TEST(MemoryMapTest, FullInterface) {
  MemoryMap map;
  EXPECT_TRUE(map.Put("k", "v").ok());
  EXPECT_EQ(map.Get("k").value(), "v");
  EXPECT_TRUE(map.Append("k", "2").ok());
  EXPECT_EQ(map.Get("k").value(), "v2");
  EXPECT_EQ(map.Size(), 1u);
  EXPECT_TRUE(map.Remove("k").ok());
  EXPECT_EQ(map.Remove("k").code(), StatusCode::kNotFound);
  EXPECT_FALSE(map.persistent());
  EXPECT_TRUE(map.supports_append());
}

// Cross-implementation property test: every store obeys the same contract.
class KVStoreContractTest : public TempDirTest,
                            public ::testing::WithParamInterface<int> {
 protected:
  std::unique_ptr<KVStore> MakeStore() {
    switch (GetParam()) {
      case 0: {
        auto s = NoVoHT::Open(NoVoHTOptions{});
        return s.ok() ? std::move(*s) : nullptr;
      }
      case 1: {
        NoVoHTOptions o;
        o.path = Path("contract.nvt");
        auto s = NoVoHT::Open(o);
        return s.ok() ? std::move(*s) : nullptr;
      }
      case 2: {
        auto s = HashDBFile::Open(Path("contract.hdb"), 32);
        return s.ok() ? std::move(*s) : nullptr;
      }
      case 3: {
        BTreeDBOptions o;
        o.path = Path("contract.btr");
        auto s = BTreeDB::Open(o);
        return s.ok() ? std::move(*s) : nullptr;
      }
      default:
        return std::make_unique<MemoryMap>();
    }
  }
};

TEST_P(KVStoreContractTest, ModelEquivalence) {
  auto store = MakeStore();
  ASSERT_NE(store, nullptr);
  std::map<std::string, std::string> model;
  Rng rng(1234);
  for (int i = 0; i < 1500; ++i) {
    std::string key = "k" + std::to_string(rng.Below(200));
    double dice = rng.NextDouble();
    if (dice < 0.6) {
      std::string value = rng.AsciiString(16);
      ASSERT_TRUE(store->Put(key, value).ok());
      model[key] = value;
    } else if (dice < 0.85) {
      Status status = store->Remove(key);
      if (model.erase(key)) {
        EXPECT_TRUE(status.ok());
      } else {
        EXPECT_EQ(status.code(), StatusCode::kNotFound);
      }
    } else {
      auto got = store->Get(key);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
      } else {
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(*got, it->second);
      }
    }
  }
  EXPECT_EQ(store->Size(), model.size());
}

std::string ContractStoreName(const ::testing::TestParamInfo<int>& info) {
  static const char* const kNames[] = {"NoVoHTMem", "NoVoHTDisk", "HashDB",
                                       "BTreeDB", "MemoryMap"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllStores, KVStoreContractTest,
                         ::testing::Range(0, 5), ContractStoreName);

}  // namespace
}  // namespace zht
