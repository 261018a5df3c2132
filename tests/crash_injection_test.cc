// Crash-injection property test for the NoVoHT write-ahead log (DESIGN.md
// §10): a crash can cut the log at *any* byte. For every possible cut point
// we require that
//
//   1. recovery succeeds — a torn tail is never misreported as corruption,
//   2. exactly the acked-durable prefix survives: every op whose record was
//      fully on disk at the cut is recovered, every later op is gone, and
//   3. the recovered store is writable again.
//
// A syncing log's file runs past its last record into preallocated zeros,
// so every cut is recovered in two shapes: truncated at the cut, and
// zero-filled from the cut to the size the file had while open (what a
// crash leaves now).
//
// Byte *damage* (as opposed to a torn tail) must be told apart: a flipped
// byte with valid records after it is kCorruption, zero tail or not; a
// flipped byte in the final record is indistinguishable from a torn write
// and is trimmed.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "novoht/novoht.h"

namespace zht {
namespace {

namespace fs = std::filesystem;

// Test-only crash artifact factory: stamps out damaged copies of a source
// log. Each call rebuilds the scratch copy from the pristine source, so
// damage never compounds across calls.
class TornFile {
 public:
  TornFile(std::string source, std::string scratch)
      : source_(std::move(source)), scratch_(std::move(scratch)) {}

  // The log as a crash at byte `offset` would leave it: truncated there,
  // then, when `zero_fill_to` is past it, zeros up to that size.
  const std::string& TruncatedAt(std::uint64_t offset,
                                 std::uint64_t zero_fill_to = 0) {
    fs::copy_file(source_, scratch_, fs::copy_options::overwrite_existing);
    fs::resize_file(scratch_, offset);
    if (zero_fill_to > offset) fs::resize_file(scratch_, zero_fill_to);
    return scratch_;
  }

  // The log with the byte at `offset` flipped (media damage, not a crash),
  // then zeros up to `zero_fill_to` when that is past its end.
  const std::string& CorruptedAt(std::uint64_t offset,
                                 std::uint64_t zero_fill_to = 0) {
    fs::copy_file(source_, scratch_, fs::copy_options::overwrite_existing);
    {
      std::fstream f(scratch_,
                     std::ios::in | std::ios::out | std::ios::binary);
      f.seekg(static_cast<std::streamoff>(offset));
      char byte = 0;
      f.get(byte);
      f.seekp(static_cast<std::streamoff>(offset));
      f.put(static_cast<char>(byte ^ 0x5A));
    }
    if (zero_fill_to > fs::file_size(scratch_)) {
      fs::resize_file(scratch_, zero_fill_to);
    }
    return scratch_;
  }

 private:
  std::string source_;
  std::string scratch_;
};

struct LoggedOp {
  enum Kind { kPut, kRemove, kAppend } kind;
  std::string key;
  std::string value;
  std::uint64_t log_end = 0;  // logical log end once this record was on disk
};

// Applies the first `count` ops to an in-memory model.
std::map<std::string, std::string> Model(const std::vector<LoggedOp>& ops,
                                         std::size_t count) {
  std::map<std::string, std::string> model;
  for (std::size_t i = 0; i < count; ++i) {
    const LoggedOp& op = ops[i];
    switch (op.kind) {
      case LoggedOp::kPut:
        model[op.key] = op.value;
        break;
      case LoggedOp::kRemove:
        model.erase(op.key);
        break;
      case LoggedOp::kAppend:
        model[op.key] += op.value;
        break;
    }
  }
  return model;
}

class CrashInjectionTest
    : public ::testing::TestWithParam<DurabilityMode> {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("zht_crash_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  NoVoHTOptions Options(const std::string& name) const {
    NoVoHTOptions options;
    options.path = Path(name);
    options.durability = GetParam();
    options.gc_garbage_ratio = 100.0;  // no compaction mid-workload
    return options;
  }

  // Runs a deterministic mixed workload, recording every op and the log
  // boundary its ack corresponds to. With every_op and with group_commit
  // (wait_for_durable defaults to true) an acked op is on disk by the time
  // the call returns, so the boundary after the call bounds its record.
  // The boundary is the log's logical end (a standalone store's log_bytes);
  // allocated_ receives the file's size while the store was still open.
  std::vector<LoggedOp> RunWorkload(const NoVoHTOptions& options) {
    auto store = NoVoHT::Open(options);
    EXPECT_TRUE(store.ok());
    std::vector<LoggedOp> ops;
    Rng rng(20260807);
    for (int i = 0; i < 40; ++i) {
      std::string key = "key" + std::to_string(rng.Below(12));
      double dice = rng.NextDouble();
      LoggedOp op;
      if (dice < 0.55) {
        op = {LoggedOp::kPut, key, rng.AsciiString(8 + i % 23)};
        EXPECT_TRUE((*store)->Put(op.key, op.value).ok());
      } else if (dice < 0.75) {
        op = {LoggedOp::kAppend, key, rng.AsciiString(5)};
        EXPECT_TRUE((*store)->Append(op.key, op.value).ok());
      } else {
        op = {LoggedOp::kRemove, key, ""};
        Status status = (*store)->Remove(op.key);
        EXPECT_TRUE(status.ok() ||
                    status.code() == StatusCode::kNotFound);
      }
      op.log_end = (*store)->stats().log_bytes;
      ops.push_back(op);
    }
    allocated_ = fs::file_size(options.path);
    return ops;  // store closes here; the source log is final
  }

  fs::path dir_;
  std::uint64_t allocated_ = 0;
};

// The tentpole property: kill the store at EVERY byte offset of the log —
// every record boundary and every torn mid-record position — and demand
// that recovery never reports corruption, never loses an acked op, and
// never resurrects an op past the cut.
TEST_P(CrashInjectionTest, EveryCutPointRecoversAckedPrefix) {
  NoVoHTOptions source = Options("source.nvt");
  std::vector<LoggedOp> ops = RunWorkload(source);
  // The clean close truncated the file to its logical end.
  const std::uint64_t log_size = fs::file_size(source.path);
  ASSERT_EQ(log_size, ops.back().log_end);
  ASSERT_GE(allocated_, log_size);

  TornFile torn(source.path, Path("crashed.nvt"));
  NoVoHTOptions recovered = Options("crashed.nvt");

  for (std::uint64_t cut = 0; cut <= log_size; ++cut) {
    for (const bool zero_filled : {false, true}) {
      const char* shape = zero_filled ? " (zero-filled)" : " (truncated)";
      torn.TruncatedAt(cut, zero_filled ? allocated_ : 0);
      auto reopened = NoVoHT::Open(recovered);
      ASSERT_TRUE(reopened.ok())
          << "cut at byte " << cut << " of " << log_size << shape
          << " misreported as: " << reopened.status().ToString();

      // Ops whose record fully precedes the cut are the acked-durable
      // prefix; recovery trimmed everything after the last of them.
      std::size_t durable = 0;
      while (durable < ops.size() && ops[durable].log_end <= cut) ++durable;
      auto model = Model(ops, durable);
      ASSERT_EQ(fs::file_size(recovered.path),
                durable == 0 ? 0 : ops[durable - 1].log_end)
          << "cut at byte " << cut << shape;

      ASSERT_EQ((*reopened)->Size(), model.size())
          << "cut at byte " << cut << shape;
      for (const auto& [key, value] : model) {
        auto got = (*reopened)->Get(key);
        ASSERT_TRUE(got.ok())
            << "acked op lost at cut " << cut << shape << ": " << key;
        ASSERT_EQ(*got, value) << "cut at byte " << cut << shape;
      }
      // Sampled writability check (every reopen would dominate the
      // runtime).
      if (cut % 512 == 0) {
        ASSERT_TRUE((*reopened)->Put("postcrash", "writable").ok());
      }
    }
  }
}

// Damage *before* the tail is corruption — later intact records prove the
// log did not simply end there.
TEST_P(CrashInjectionTest, DamageBeforeTailIsCorruption) {
  NoVoHTOptions source = Options("source.nvt");
  std::vector<LoggedOp> ops = RunWorkload(source);
  TornFile torn(source.path, Path("damaged.nvt"));
  NoVoHTOptions recovered = Options("damaged.nvt");

  // A byte inside the first record's payload, and one inside a mid-log
  // record's header (length fields included — regression for recovery that
  // trusted a damaged length and silently truncated).
  const std::uint64_t mid_start = ops[ops.size() / 2 - 1].log_end;
  for (std::uint64_t offset : {std::uint64_t{8}, mid_start + 5}) {
    torn.CorruptedAt(offset);
    auto reopened = NoVoHT::Open(recovered);
    ASSERT_FALSE(reopened.ok()) << "damage at byte " << offset;
    EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption)
        << "damage at byte " << offset;
  }
}

// The same damage in a log that ends in its preallocated zeros: the zeros
// end the log, but they do not excuse the damage before it.
TEST_P(CrashInjectionTest, DamageBeforeZeroTailIsCorruption) {
  NoVoHTOptions source = Options("source.nvt");
  std::vector<LoggedOp> ops = RunWorkload(source);
  TornFile torn(source.path, Path("damaged.nvt"));
  NoVoHTOptions recovered = Options("damaged.nvt");
  const std::uint64_t zero_tail = ops.back().log_end + (1u << 20);

  const std::uint64_t mid_start = ops[ops.size() / 2 - 1].log_end;
  for (std::uint64_t offset : {std::uint64_t{8}, mid_start + 5}) {
    torn.CorruptedAt(offset, zero_tail);
    auto reopened = NoVoHT::Open(recovered);
    ASSERT_FALSE(reopened.ok()) << "damage at byte " << offset;
    EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption)
        << "damage at byte " << offset;
  }
}

// A crash mid-append of a syncing log: a torn record, then a MiB of the
// zeros preallocated after it. Both are trimmed and the store takes writes.
TEST_P(CrashInjectionTest, TornRecordBeforeZeroTailIsTrimmed) {
  NoVoHTOptions source = Options("source.nvt");
  std::vector<LoggedOp> ops = RunWorkload(source);
  TornFile torn(source.path, Path("tail.nvt"));
  NoVoHTOptions recovered = Options("tail.nvt");

  const std::uint64_t last_start = ops[ops.size() - 2].log_end;
  const std::uint64_t cut = (last_start + ops.back().log_end) / 2;
  ASSERT_GT(cut, last_start);
  torn.TruncatedAt(cut, cut + (1u << 20));
  auto reopened = NoVoHT::Open(recovered);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(fs::file_size(recovered.path), last_start);

  auto model = Model(ops, ops.size() - 1);
  EXPECT_EQ((*reopened)->Size(), model.size());
  for (const auto& [key, value] : model) {
    auto got = (*reopened)->Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, value);
  }
  ASSERT_TRUE((*reopened)->Put("postcrash", "writable").ok());
  reopened->reset();
  auto again = NoVoHT::Open(recovered);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again)->Get("postcrash").value(), "writable");
  EXPECT_EQ((*again)->Size(), model.size() + 1);
}

// Damage confined to the final record is indistinguishable from a torn
// write: trimmed, with every earlier op intact.
TEST_P(CrashInjectionTest, DamageInFinalRecordIsTrimmed) {
  NoVoHTOptions source = Options("source.nvt");
  std::vector<LoggedOp> ops = RunWorkload(source);
  TornFile torn(source.path, Path("tail.nvt"));
  NoVoHTOptions recovered = Options("tail.nvt");

  const std::uint64_t last_start = ops[ops.size() - 2].log_end;
  torn.CorruptedAt(last_start + 6);  // inside the last record
  auto reopened = NoVoHT::Open(recovered);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();

  auto model = Model(ops, ops.size() - 1);
  EXPECT_EQ((*reopened)->Size(), model.size());
  for (const auto& [key, value] : model) {
    auto got = (*reopened)->Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, value);
  }
  EXPECT_TRUE((*reopened)->Put("postcrash", "writable").ok());
}

std::string ModeName(const ::testing::TestParamInfo<DurabilityMode>& info) {
  return DurabilityModeName(info.param);
}

INSTANTIATE_TEST_SUITE_P(AckedModes, CrashInjectionTest,
                         ::testing::Values(DurabilityMode::kEveryOp,
                                           DurabilityMode::kGroupCommit),
                         ModeName);

}  // namespace
}  // namespace zht
