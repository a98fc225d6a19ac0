// Host record printed with every result, so numbers from different hosts
// are never compared directly.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct HostInfo {
  unsigned nproc = 0;
  std::string cpu_model;
  bool avx512_vnni = false;
  bool avx512_bf16 = false;
  bool amx = false;  // amx_tile
  std::string build_type;
  bool native = false;  // built with -march=native (DEEPFUSION_NATIVE)
};

HostInfo host_info();
/// One-line JSON object: the host plus the run's workload and seed.
std::string host_json(const HostInfo& h, const std::string& workload, uint64_t seed);

/// Peak resident set size of this process (VmHWM), MB.
double peak_rss_mb();
/// Return freed heap memory to the kernel (malloc_trim), then reset the
/// peak-RSS high-water mark (Linux clear_refs), so the peak covers only
/// what follows and not memory an earlier phase freed but the allocator
/// kept. False when the kernel refuses the reset.
bool reset_peak_rss();

}  // namespace perfbench
