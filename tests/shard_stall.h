// ShardStall: holds ZhtServer shard drains on demand, for tests and benches
// that need posts to queue behind a busy shard (admission control, drain
// hand-offs).
//
// Stores built by Factory() block every Put of a key that starts with
// kKeyPrefix until Release(). Hold(server, s) sends one such insert from a
// helper thread; that thread's post drains shard s inline and stops inside
// the Put, so every later post to shard s finds the drain taken and queues
// behind it. Release() opens the latch and joins the helpers: each returns
// once its drain has run everything queued behind it.
//
//   ShardStall stall;
//   options.store_factory = stall.Factory();
//   ZhtServer server(table, options, transport);
//   stall.Hold(server, 0);
//   server.HandleAsync(...);  // queues on shard 0, returns at once
//   stall.Release();          // the helper runs it
//
// Release before destroying the server: its destructor drains every shard.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/zht_server.h"
#include "novoht/novoht.h"

namespace zht {

class ShardStall {
 public:
  static constexpr std::string_view kKeyPrefix = "__stall";

  ShardStall() = default;
  ShardStall(const ShardStall&) = delete;
  ShardStall& operator=(const ShardStall&) = delete;
  ~ShardStall() { Release(); }

  // In-memory NoVoHT stores whose stall-key Puts wait for Release().
  StoreFactory Factory() const {
    return [latch = latch_](InstanceId, PartitionId)
               -> std::unique_ptr<KVStore> {
      auto inner = NoVoHT::Open(NoVoHTOptions{});
      if (!inner.ok()) return nullptr;
      return std::make_unique<LatchedStore>(std::move(*inner), latch);
    };
  }

  // Stalls shard `shard` of `server` (whose stores come from Factory()) and
  // returns once the drain is held. Returns the holding thread's id, the
  // thread that later runs whatever queues behind it.
  std::thread::id Hold(ZhtServer& server, std::size_t shard) {
    Request put;
    put.op = OpCode::kInsert;
    put.key = KeyOnShard(server, shard);
    put.value = "stall";
    put.seq = ++seq_;
    put.epoch = server.table().epoch();
    std::size_t held = 0;
    {
      std::lock_guard<std::mutex> lock(latch_->mu);
      held = latch_->entered;
    }
    helpers_.emplace_back([&server, put = std::move(put)]() mutable {
      server.HandleAsync(std::move(put), [](Response&&) {});
    });
    std::unique_lock<std::mutex> lock(latch_->mu);
    latch_->changed.wait(lock, [&] { return latch_->entered > held; });
    return helpers_.back().get_id();
  }

  // Opens the latch and joins every helper. Idempotent.
  void Release() {
    {
      std::lock_guard<std::mutex> lock(latch_->mu);
      latch_->open = true;
    }
    latch_->changed.notify_all();
    for (std::thread& helper : helpers_) helper.join();
    helpers_.clear();
  }

 private:
  struct Latch {
    std::mutex mu;
    std::condition_variable changed;
    std::size_t entered = 0;  // stall-key Puts that reached the latch
    bool open = false;
  };

  class LatchedStore final : public KVStore {
   public:
    LatchedStore(std::unique_ptr<KVStore> inner, std::shared_ptr<Latch> latch)
        : inner_(std::move(inner)), latch_(std::move(latch)) {}

    Status Put(std::string_view key, std::string_view value) override {
      if (key.substr(0, kKeyPrefix.size()) == kKeyPrefix) {
        std::unique_lock<std::mutex> lock(latch_->mu);
        ++latch_->entered;
        latch_->changed.notify_all();
        latch_->changed.wait(lock, [&] { return latch_->open; });
      }
      return inner_->Put(key, value);
    }
    Result<std::string> Get(std::string_view key) override {
      return inner_->Get(key);
    }
    Status Remove(std::string_view key) override { return inner_->Remove(key); }
    Status Append(std::string_view key, std::string_view value) override {
      return inner_->Append(key, value);
    }
    std::uint64_t Size() const override { return inner_->Size(); }
    void ForEach(const std::function<void(std::string_view, std::string_view)>&
                     fn) const override {
      inner_->ForEach(fn);
    }
    bool supports_append() const override { return inner_->supports_append(); }

   private:
    std::unique_ptr<KVStore> inner_;
    std::shared_ptr<Latch> latch_;
  };

  // A stall key whose partition belongs to `shard` (shard = partition %
  // num_shards, the server's ownership rule).
  static std::string KeyOnShard(const ZhtServer& server, std::size_t shard) {
    for (int i = 0;; ++i) {
      std::string key = std::string(kKeyPrefix) + std::to_string(i);
      if (server.table().PartitionOfKey(key) % server.num_shards() == shard) {
        return key;
      }
    }
  }

  std::shared_ptr<Latch> latch_ = std::make_shared<Latch>();
  std::vector<std::thread> helpers_;
  std::uint64_t seq_ = 0;
};

}  // namespace zht
