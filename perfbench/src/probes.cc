#include "probes.h"

#include <sys/vfs.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <new>

namespace perfbench {

std::uint64_t ProcStatusField(const std::string& name) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = name + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return std::strtoull(line.c_str() + prefix.size(), nullptr, 10);
    }
  }
  return 0;
}

std::string FilesystemType(const std::string& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x794c7630: return "overlayfs";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: return "fs-0x" + std::to_string(fs.f_type);
  }
}

double StolenCpuSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t field[8] = {};  // user nice system idle iowait irq softirq steal
  in >> cpu;
  for (std::uint64_t& f : field) in >> f;
  if (!in || cpu != "cpu") return 0;
  const long hz = ::sysconf(_SC_CLK_TCK);
  return hz > 0 ? static_cast<double>(field[7]) / static_cast<double>(hz) : 0;
}

namespace {

// One node per counting thread, pushed onto a lock-free list on the
// thread's first counted allocation and never freed (threads may exit
// before the totals are read). Nodes come from malloc so counting never
// recurses into operator new.
struct CounterNode {
  std::atomic<std::uint64_t> allocations{0};
  std::atomic<std::uint64_t> bytes{0};
  CounterNode* next = nullptr;
};

std::atomic<bool> g_counting{false};
std::atomic<CounterNode*> g_nodes{nullptr};
thread_local CounterNode* t_node = nullptr;

void Count(std::size_t size) {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  if (t_node == nullptr) {
    void* raw = std::malloc(sizeof(CounterNode));
    if (raw == nullptr) return;
    auto* node = new (raw) CounterNode();
    node->next = g_nodes.load(std::memory_order_relaxed);
    while (!g_nodes.compare_exchange_weak(node->next, node,
                                          std::memory_order_release,
                                          std::memory_order_relaxed)) {
    }
    t_node = node;
  }
  // Only this thread writes its node; relaxed add keeps the reader race-free.
  t_node->allocations.fetch_add(1, std::memory_order_relaxed);
  t_node->bytes.fetch_add(size, std::memory_order_relaxed);
}

void* Allocate(std::size_t size) {
  Count(size);
  for (;;) {
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

}  // namespace

void SetAllocCounting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

AllocTotals AllocTotalsNow() {
  AllocTotals totals;
  for (CounterNode* node = g_nodes.load(std::memory_order_acquire); node;
       node = node->next) {
    totals.allocations += node->allocations.load(std::memory_order_relaxed);
    totals.bytes += node->bytes.load(std::memory_order_relaxed);
  }
  return totals;
}

}  // namespace perfbench

void* operator new(std::size_t size) { return perfbench::Allocate(size); }
void* operator new[](std::size_t size) { return perfbench::Allocate(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
