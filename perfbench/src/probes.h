// Process-wide resource probes for the benchmark binary: /proc/self/status
// fields and a counting global operator new.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

// A "Name:  <number>" field of /proc/self/status (e.g. "VmHWM" in kB,
// "Threads"); 0 when absent.
std::uint64_t ProcStatusField(const std::string& name);

// Filesystem type name of `path` ("ext4", "overlayfs", ...).
std::string FilesystemType(const std::string& path);

// CPU seconds the hypervisor gave to others while this machine's CPUs
// wanted to run ("steal" of /proc/stat, all CPUs); 0 when unavailable.
double StolenCpuSeconds();

// Allocation counting. The replaced operator new counts into thread-local
// counters only while counting is on, so untraced runs pay one relaxed load.
struct AllocTotals {
  std::uint64_t allocations = 0;
  std::uint64_t bytes = 0;
};
void SetAllocCounting(bool on);
AllocTotals AllocTotalsNow();  // summed over every thread that ever counted

}  // namespace perfbench
